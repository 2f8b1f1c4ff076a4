type 'a state =
  | Pending
  | Done of 'a
  | Raised of exn * Printexc.raw_backtrace

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

type t = {
  n_jobs : int;
  m : Mutex.t;
  work_ready : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

let jobs t = t.n_jobs

let worker_loop pool () =
  let rec next () =
    Mutex.lock pool.m;
    let rec take () =
      match Queue.take_opt pool.queue with
      | Some task ->
          Mutex.unlock pool.m;
          task ();
          next ()
      | None ->
          if pool.closed then Mutex.unlock pool.m
          else begin
            Condition.wait pool.work_ready pool.m;
            take ()
          end
    in
    take ()
  in
  next ()

let create ~jobs =
  let n_jobs = if jobs < 1 then 1 else jobs in
  let pool =
    {
      n_jobs;
      m = Mutex.create ();
      work_ready = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
    }
  in
  if n_jobs > 1 then
    (* Workers are spawned before the pool escapes [create] and the list is
       read again only by the creating domain in [shutdown].  ahl_lint: allow R7 *)
    pool.workers <- List.init n_jobs (fun _ -> Domain.spawn (worker_loop pool));
  pool

let fill fut result =
  Mutex.lock fut.fm;
  fut.state <- result;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

let run_into fut f () =
  match f () with
  | v -> fill fut (Done v)
  | exception e -> fill fut (Raised (e, Printexc.get_raw_backtrace ()))

let submit pool f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
  if pool.n_jobs <= 1 then run_into fut f ()
  else begin
    Mutex.lock pool.m;
    Queue.add (run_into fut f) pool.queue;
    Condition.signal pool.work_ready;
    Mutex.unlock pool.m
  end;
  fut

let await fut =
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.state with
    | Pending ->
        Condition.wait fut.fc fut.fm;
        wait ()
    | Done v ->
        Mutex.unlock fut.fm;
        v
    | Raised (e, bt) ->
        Mutex.unlock fut.fm;
        Printexc.raise_with_backtrace e bt
  in
  wait ()

let map pool f xs =
  let futures = List.map (fun x -> submit pool (fun () -> f x)) xs in
  List.map await futures

let shutdown pool =
  Mutex.lock pool.m;
  pool.closed <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.m;
  List.iter Domain.join pool.workers;
  pool.workers <- []
