solution 2 2 3
assign -1 -1
impl 0 0
sw 0 1
sw
ctx
ctx
ctx
