val double : int -> int
