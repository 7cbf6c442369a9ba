type ordering = Total_order | Gtlp_order | Partial_order

type processor = { proc_name : string; proc_cost : float; proc_speed : float }

type reconfigurable = {
  rc_name : string;
  n_clb : int;
  reconfig_ms_per_clb : float;
  rc_cost : float;
}

type asic = { asic_name : string; asic_cost : float }

type t =
  | Processor of processor
  | Reconfigurable of reconfigurable
  | Asic of asic

let ordering = function
  | Processor _ -> Total_order
  | Reconfigurable _ -> Gtlp_order
  | Asic _ -> Partial_order

let name = function
  | Processor p -> p.proc_name
  | Reconfigurable r -> r.rc_name
  | Asic a -> a.asic_name

let cost = function
  | Processor p -> p.proc_cost
  | Reconfigurable r -> r.rc_cost
  | Asic a -> a.asic_cost

let reconfiguration_time rc clbs =
  if clbs < 0 then invalid_arg "Resource.reconfiguration_time: negative area";
  rc.reconfig_ms_per_clb *. float_of_int clbs

let processor ?(cost = 1.0) ?(speed = 1.0) proc_name =
  if speed <= 0.0 then invalid_arg "Resource.processor: speed <= 0";
  if not (Float.is_finite speed) then
    invalid_arg "Resource.processor: speed not finite";
  Processor { proc_name; proc_cost = cost; proc_speed = speed }

let reconfigurable ?(cost = 1.0) ~n_clb ~reconfig_ms_per_clb rc_name =
  if n_clb <= 0 then invalid_arg "Resource.reconfigurable: n_clb <= 0";
  if reconfig_ms_per_clb < 0.0 then
    invalid_arg "Resource.reconfigurable: negative tR";
  if not (Float.is_finite reconfig_ms_per_clb) then
    invalid_arg "Resource.reconfigurable: tR not finite";
  Reconfigurable { rc_name; n_clb; reconfig_ms_per_clb; rc_cost = cost }

let asic ?(cost = 1.0) asic_name = Asic { asic_name; asic_cost = cost }

let pp fmt = function
  | Processor p -> Format.fprintf fmt "processor %s" p.proc_name
  | Reconfigurable r ->
    Format.fprintf fmt "DRLC %s (%d CLBs, tR=%.4f ms/CLB)" r.rc_name r.n_clb
      r.reconfig_ms_per_clb
  | Asic a -> Format.fprintf fmt "ASIC %s" a.asic_name
