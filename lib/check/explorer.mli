(** The explorer core behind both checkers; see {!Explorer_intf}. *)

module Make (M : Explorer_intf.MODEL) :
  Explorer_intf.S
    with type schedule := M.schedule
     and type violation := M.violation
     and type params := M.params
     and type stats := M.stats
