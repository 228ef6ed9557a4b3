(* Σ lives in [softnic], beside the reference implementations it is
   derived from; this is its name in the compiler. *)
include Softnic.Semantic
