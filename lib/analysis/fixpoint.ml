(* The certifier's worklist fixpoint (see fixpoint.mli). *)

let solve ~join ~equal ~widen ~transfer entries =
  let states = Hashtbl.create 16 and joins = Hashtbl.create 16 in
  let work = Queue.create () in
  let schedule (a, s) =
    match Hashtbl.find_opt states a with
    | None ->
      Hashtbl.replace states a s;
      Queue.push a work
    | Some old ->
      let j = join old s in
      if not (equal j old) then begin
        let n = Option.value ~default:0 (Hashtbl.find_opt joins a) + 1 in
        Hashtbl.replace joins a n;
        Hashtbl.replace states a (widen a ~joins:n ~old j);
        Queue.push a work
      end
  in
  List.iter schedule entries;
  while not (Queue.is_empty work) do
    let a = Queue.pop work in
    List.iter schedule (transfer a (Hashtbl.find states a))
  done;
  states
