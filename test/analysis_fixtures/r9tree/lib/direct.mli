val total : int list -> int
