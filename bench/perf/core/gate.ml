(* Quiet-core gating and speed normalisation of timed samples.

   The benchmark runs on shared vCPUs whose speed jumps between discrete
   levels as a neighbour starts or stops using the same physical core
   (memory-bound code slows by about 1.5x on a busy core), and drifts by
   up to 30% between quiet periods. A fixed reference kernel, run
   between measured chunks, reads the level. Each timed sample carries
   the worst reading around it. The gate then

   - keeps only samples whose reading is within [slack] of the run's
     quiet level (the 2nd percentile of every reading of that kind, so
     a run that is quiet a few percent of the time still finds it): work
     measured on a contended core is dropped, because scaling does not
     hold across that jump, and
   - scales what it keeps to a fixed nominal reading: durations by
     [nominal / reading], rates by its inverse. Within the quiet band,
     scaled times hold to about 1% while raw ones move by 30%.

   Readings are of two kinds: [Main], taken on the calling domain around
   work it runs itself, and [Worker], taken inside a worker domain while
   it runs (a producer/worker run's speed is its worker's: which core
   the worker lands on is only visible from inside it). *)

type kind = Main | Worker
type reading = { kind : kind; us : float }

(* The reading for work that ran between [a] and [b]. *)
let worse a b = if a.us >= b.us then a else b

type t = {
  nominal : kind -> float;
  limit : kind -> float;
  quiet : kind -> float;  (** the median reading the gate keeps *)
}

let slack = 1.2

let make ~nominal readings =
  let level kind =
    let xs =
      List.filter_map (fun r -> if r.kind = kind then Some r.us else None) readings
      |> Array.of_list |> Summary.sorted
    in
    if Array.length xs = 0 then (Float.infinity, nominal kind)
    else
      let limit = slack *. Summary.quantile_sorted xs 0.02 in
      (* never empty: the smallest reading is below the limit *)
      (limit, Summary.median (List.filter (fun x -> x <= limit) (Array.to_list xs) |> Array.of_list))
  in
  let main = level Main and worker = level Worker in
  let pick f = function Main -> f main | Worker -> f worker in
  { nominal; limit = pick fst; quiet = pick snd }

(* The same scaling, every sample kept: the fallback for a metric none
   of whose samples passed. *)
let relax g = { g with limit = (fun _ -> Float.infinity) }

let ok g r = r.us <= g.limit r.kind

(* Multiply a duration by this to state it at nominal speed. *)
let scale g r = g.nominal r.kind /. r.us

(* The same for work that took no reading of its own: the run's quiet
   level stands in. *)
let scale_quiet g kind = g.nominal kind /. g.quiet kind
