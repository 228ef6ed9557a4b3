type value = VInt of { v : int64; width : int option } | VBool of bool | VUnknown

let vint ?width v = VInt { v; width }

let equal_value a b =
  match (a, b) with
  | VInt { v = x; _ }, VInt { v = y; _ } -> Int64.equal x y
  | VBool x, VBool y -> Bool.equal x y
  | VUnknown, VUnknown -> true
  | _ -> false

type env = string list -> value option

let empty_env _ = None

let rec path_of_expr = function
  | Ast.EIdent i -> Some [ i.name ]
  | Ast.EMember (e, f) -> (
      match path_of_expr e with Some p -> Some (p @ [ f.name ]) | None -> None)
  | _ -> None

let truncate ~width v =
  if width >= 64 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)

let retain_width a b =
  match (a, b) with Some w, _ -> Some w | None, w -> w

(* Arithmetic respects the P4 rule that bit<w> operations wrap at w. When
   neither operand carries a width the value is an "infinite precision"
   integer literal and no truncation happens. *)
let arith op a b =
  match (a, b) with
  | VInt { v = x; width = wa }, VInt { v = y; width = wb } -> (
      let w = retain_width wa wb in
      let wrap v = match w with Some w -> truncate ~width:w v | None -> v in
      match op with
      | Ast.Add -> VInt { v = wrap (Int64.add x y); width = w }
      | Ast.Sub -> VInt { v = wrap (Int64.sub x y); width = w }
      | Ast.Mul -> VInt { v = wrap (Int64.mul x y); width = w }
      | Ast.Div -> if y = 0L then VUnknown else VInt { v = Int64.div x y; width = w }
      | Ast.Mod -> if y = 0L then VUnknown else VInt { v = Int64.rem x y; width = w }
      (* A count of 64 or more, read as unsigned, shifts every bit out;
         [Int64]'s shifts leave such a count unspecified. *)
      | (Ast.Shl | Ast.Shr) when Int64.unsigned_compare y 64L >= 0 ->
          VInt { v = 0L; width = wa }
      | Ast.Shl -> VInt { v = wrap (Int64.shift_left x (Int64.to_int y)); width = wa }
      | Ast.Shr ->
          VInt { v = Int64.shift_right_logical x (Int64.to_int y); width = wa }
      | Ast.BAnd -> VInt { v = Int64.logand x y; width = w }
      | Ast.BOr -> VInt { v = wrap (Int64.logor x y); width = w }
      | Ast.BXor -> VInt { v = wrap (Int64.logxor x y); width = w }
      | Ast.Concat -> (
          match (wa, wb) with
          | Some la, Some lb when la + lb <= 64 ->
              VInt { v = Int64.logor (Int64.shift_left x lb) (truncate ~width:lb y);
                     width = Some (la + lb) }
          | _ -> VUnknown)
      | Ast.Eq -> VBool (Int64.equal x y)
      | Ast.Neq -> VBool (not (Int64.equal x y))
      | Ast.Lt -> VBool (Int64.unsigned_compare x y < 0)
      | Ast.Le -> VBool (Int64.unsigned_compare x y <= 0)
      | Ast.Gt -> VBool (Int64.unsigned_compare x y > 0)
      | Ast.Ge -> VBool (Int64.unsigned_compare x y >= 0)
      | Ast.LAnd | Ast.LOr -> VUnknown)
  | VBool x, VBool y -> (
      match op with
      | Ast.Eq -> VBool (Bool.equal x y)
      | Ast.Neq -> VBool (not (Bool.equal x y))
      | Ast.LAnd -> VBool (x && y)
      | Ast.LOr -> VBool (x || y)
      | _ -> VUnknown)
  | _ -> VUnknown

let arith_value = arith

let rec eval (env : env) (e : Ast.expr) : value =
  match e with
  | Ast.EInt { value; width; _ } ->
      let v = match width with Some w -> truncate ~width:w value | None -> value in
      VInt { v; width }
  | Ast.EBool b -> VBool b
  | Ast.EString _ -> VUnknown
  | Ast.EIdent _ | Ast.EMember _ -> (
      match path_of_expr e with
      | Some p -> ( match env p with Some v -> v | None -> VUnknown)
      | None -> VUnknown)
  | Ast.EIndex _ | Ast.ECall _ -> VUnknown
  | Ast.EUnop (op, e) -> (
      match (op, eval env e) with
      | Ast.Neg, VInt { v; width } ->
          let v = Int64.neg v in
          VInt { v = (match width with Some w -> truncate ~width:w v | None -> v); width }
      | Ast.BitNot, VInt { v; width } ->
          let v = Int64.lognot v in
          VInt { v = (match width with Some w -> truncate ~width:w v | None -> v); width }
      | Ast.LNot, VBool b -> VBool (not b)
      | Ast.LNot, VInt { v; _ } -> VBool (v = 0L)
      | _, VUnknown -> VUnknown
      | _ -> VUnknown)
  | Ast.EBinop (Ast.LAnd, a, b) -> (
      match eval env a with
      | VBool false -> VBool false
      | VBool true -> as_bool (eval env b)
      | VInt { v; _ } -> if v = 0L then VBool false else as_bool (eval env b)
      | VUnknown -> (
          (* false && ? is false even when the left side is unknown only if
             the right side is known false; check it. *)
          match as_bool (eval env b) with VBool false -> VBool false | _ -> VUnknown))
  | Ast.EBinop (Ast.LOr, a, b) -> (
      match eval env a with
      | VBool true -> VBool true
      | VBool false -> as_bool (eval env b)
      | VInt { v; _ } -> if v <> 0L then VBool true else as_bool (eval env b)
      | VUnknown -> (
          match as_bool (eval env b) with VBool true -> VBool true | _ -> VUnknown))
  | Ast.EBinop (op, a, b) -> arith op (eval env a) (eval env b)
  | Ast.ETernary (c, t, f) -> (
      match as_bool (eval env c) with
      | VBool true -> eval env t
      | VBool false -> eval env f
      | _ -> VUnknown)
  | Ast.ECast (Ast.TBit we, e) -> (
      match (eval env we, eval env e) with
      | VInt { v = w; _ }, VInt { v; _ } ->
          let w = Int64.to_int w in
          VInt { v = truncate ~width:w v; width = Some w }
      | VInt { v = w; _ }, VBool b ->
          VInt { v = (if b then 1L else 0L); width = Some (Int64.to_int w) }
      | _ -> VUnknown)
  | Ast.ECast (_, e) -> eval env e

and as_bool = function
  | VBool b -> VBool b
  | VInt { v; _ } -> VBool (v <> 0L)
  | VUnknown -> VUnknown

let eval_bool env e =
  match as_bool (eval env e) with VBool b -> Some b | _ -> None

let const_int env e = match eval env e with VInt { v; _ } -> Some v | _ -> None
