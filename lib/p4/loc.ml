(** Source positions for error reporting. *)

type pos = { line : int; col : int; off : int } [@@deriving show, eq]

type span = { left : pos; right : pos } [@@deriving show, eq]
(** [left] is inclusive, [right] exclusive (one past the last char). *)

let dummy_pos = { line = 0; col = 0; off = -1 }
let dummy = { left = dummy_pos; right = dummy_pos }
let merge a b = { left = a.left; right = b.right }

let pp_short ppf s = Format.fprintf ppf "%d:%d" s.left.line s.left.col
