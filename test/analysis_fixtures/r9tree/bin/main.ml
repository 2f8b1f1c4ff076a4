let () = print_int (Direct.total [ 1; 2; 3 ])
