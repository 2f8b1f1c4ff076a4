val triple : int -> int
