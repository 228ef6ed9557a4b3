(* The regression rule shared by --compare and the README: a candidate
   median may be worse than the baseline median by at most [bound], a
   share of the baseline. *)

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type t = {
  ratio : float;  (** candidate / baseline *)
  worse_by : float;  (** share of the baseline by which the candidate is worse; negative when better *)
  within : bool;
}

let judge ~better ~bound ~baseline ~candidate =
  let ratio = if baseline = 0.0 then Float.nan else candidate /. baseline in
  let worse_by =
    if baseline = 0.0 then
      (* A zero baseline only passes an equal or better candidate. *)
      match better with
      | Lower -> if candidate <= 0.0 then 0.0 else Float.infinity
      | Higher -> if candidate >= 0.0 then 0.0 else Float.infinity
    else
      let d = (candidate -. baseline) /. Float.abs baseline in
      match better with Lower -> d | Higher -> -.d
  in
  { ratio; worse_by; within = worse_by <= bound }
