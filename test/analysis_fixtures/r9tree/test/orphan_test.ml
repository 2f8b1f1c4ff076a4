let () = assert (Orphan.triple 2 = 6)
