(* Span recorder for the traced benchmark leg.

   Spans live in preallocated parallel arrays, so recording one costs two
   clock reads, two minor-heap counter reads and a few array stores — no
   allocation. Each span carries a name, start/end (monotonic ns), the
   minor words allocated while it was open, the group (burst or request)
   it belongs to, and its parent: the innermost span still open when it
   began. A full buffer drops further spans and counts them, so a long
   rep degrades to a partial trace instead of failing. *)

type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;  (* id -> name *)
  name : int array;
  start_ns : int array;
  end_ns : int array;
  words : float array;  (* at entry: the counter; once closed: the delta *)
  group : int array;
  parent : int array;
  stack : int array;  (* open spans, innermost last *)
  mutable depth : int;
  mutable len : int;
  mutable dropped : int;
  mutable cur_group : int;
}

let max_depth = 16

let create capacity =
  {
    ids = Hashtbl.create 32;
    names = [||];
    name = Array.make capacity 0;
    start_ns = Array.make capacity 0;
    end_ns = Array.make capacity 0;
    words = Array.make capacity 0.0;
    group = Array.make capacity 0;
    parent = Array.make capacity (-1);
    stack = Array.make max_depth (-1);
    depth = 0;
    len = 0;
    dropped = 0;
    cur_group = 0;
  }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Span names are interned once, outside the timed region. *)
let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
      let id = Array.length t.names in
      Hashtbl.add t.ids name id;
      t.names <- Array.append t.names [| name |];
      id

let set_group t g = t.cur_group <- g
let length t = t.len
let dropped t = t.dropped

let clear t =
  t.len <- 0;
  t.dropped <- 0;
  t.depth <- 0;
  t.cur_group <- 0

(* Returns the span's index, or -1 when the buffer is full. *)
let enter t id =
  let i = t.len in
  if i >= Array.length t.name then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    if t.depth >= max_depth then invalid_arg "Trace.enter: spans nested too deep";
    t.len <- i + 1;
    t.name.(i) <- id;
    t.group.(i) <- t.cur_group;
    t.parent.(i) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
    t.stack.(t.depth) <- i;
    t.depth <- t.depth + 1;
    t.words.(i) <- Gc.minor_words ();
    t.start_ns.(i) <- now_ns ();
    i
  end

let leave t i =
  if i >= 0 then begin
    let end_ns = now_ns () and words = Gc.minor_words () in
    if t.depth = 0 || t.stack.(t.depth - 1) <> i then
      invalid_arg "Trace.leave: span is not the innermost open span";
    t.end_ns.(i) <- end_ns;
    t.words.(i) <- words -. t.words.(i);
    t.depth <- t.depth - 1
  end

(* Record a span from explicit values — for spans measured elsewhere
   and for tests. *)
let add t ~name ~group ~parent ~start_ns ~end_ns ~words =
  let i = t.len in
  if i >= Array.length t.name then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    t.len <- i + 1;
    t.name.(i) <- intern t name;
    t.group.(i) <- group;
    t.parent.(i) <- parent;
    t.start_ns.(i) <- start_ns;
    t.end_ns.(i) <- end_ns;
    t.words.(i) <- words;
    i
  end

let duration t i = t.end_ns.(i) - t.start_ns.(i)

(* Self time: a span's duration minus the part of its interval that its
   children cover. Children are recorded in start order, so their union
   is a single sweep per parent. Self words subtract the children's
   words. *)
let self t =
  let n = t.len in
  let covered = Array.make n 0 in
  let reach = Array.make n min_int in
  let child_words = Array.make n 0.0 in
  for j = 0 to n - 1 do
    let p = t.parent.(j) in
    if p >= 0 then begin
      let s = max t.start_ns.(j) (max t.start_ns.(p) reach.(p)) in
      let e = min t.end_ns.(j) t.end_ns.(p) in
      if e > s then covered.(p) <- covered.(p) + (e - s);
      reach.(p) <- max reach.(p) (min t.end_ns.(j) t.end_ns.(p));
      child_words.(p) <- child_words.(p) +. t.words.(j)
    end
  done;
  Array.init n (fun i ->
      (duration t i - covered.(i), t.words.(i) -. child_words.(i)))

(* A snapshot that later recording into [t] does not disturb. *)
let copy t =
  {
    t with
    ids = Hashtbl.copy t.ids;
    name = Array.sub t.name 0 t.len;
    start_ns = Array.sub t.start_ns 0 t.len;
    end_ns = Array.sub t.end_ns 0 t.len;
    words = Array.sub t.words 0 t.len;
    group = Array.sub t.group 0 t.len;
    parent = Array.sub t.parent 0 t.len;
    stack = Array.copy t.stack;
  }

type agg = {
  a_name : string;
  a_count : int;
  a_total_ns : float;
  a_self_ns : float;
  a_self_words : float;
}

(* Per-name totals, in first-seen order. [weight] maps a span's group to
   the factor its times are multiplied by; a group of weight 0 is left
   out entirely. *)
let aggregate ?(weight = fun _ -> 1.0) t =
  let selfs = self t in
  let acc = Hashtbl.create 32 in
  let order = ref [] in
  for i = 0 to t.len - 1 do
    let k = weight t.group.(i) in
    if k > 0.0 then begin
      let id = t.name.(i) in
      let c, tot, s, w =
        match Hashtbl.find_opt acc id with
        | Some x -> x
        | None ->
            order := id :: !order;
            (0, 0.0, 0.0, 0.0)
      in
      let sn, sw = selfs.(i) in
      Hashtbl.replace acc id
        (c + 1, tot +. (k *. float_of_int (duration t i)), s +. (k *. float_of_int sn), w +. sw)
    end
  done;
  List.rev_map
    (fun id ->
      let c, tot, s, w = Hashtbl.find acc id in
      { a_name = t.names.(id); a_count = c; a_total_ns = tot; a_self_ns = s;
        a_self_words = w })
    !order

(* Chrome trace-event format: "X" complete events with microsecond
   timestamps relative to the first span, plus a "process_name"
   metadata event naming [pid]. Wrap them as {"traceEvents": [...]} to
   load in chrome://tracing or Perfetto. *)
let chrome_events ~pid ~process t =
  let t0 = if t.len = 0 then 0 else t.start_ns.(0) in
  let us ns = Json.Num (float_of_int ns /. 1000.0) in
  let int i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("pid", int pid);
      ("args", Json.Obj [ ("name", Json.Str process); ("dropped_spans", int t.dropped) ]);
    ]
  :: List.init t.len (fun i ->
         Json.Obj
           [
             ("name", Json.Str t.names.(t.name.(i)));
             ("cat", Json.Str "opendesc");
             ("ph", Json.Str "X");
             ("ts", us (t.start_ns.(i) - t0));
             ("dur", us (duration t i));
             ("pid", int pid);
             ("tid", int 1);
             ( "args",
               Json.Obj
                 [
                   ("span", int i);
                   ("parent", int t.parent.(i));
                   ("group", int t.group.(i));
                   ("minor_words", Json.Num t.words.(i));
                 ] );
           ])
