val quadruple : int -> int
