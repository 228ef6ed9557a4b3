(** Constant-time accessors over completion records (§4 step 4).

    An accessor reads one field's bit slice at a fixed offset — the OCaml
    equivalent of the C/eBPF stubs the compiler emits (see {!Codegen_c}
    and {!Codegen_ebpf}). Every read and write is {!Softnic.Codec}'s
    field shape: an aligned 8-, 16-, 32- or 64-bit field is one load,
    any other field of at most 7 bytes an int over the bytes it spans,
    and a field over 8 or 9 bytes the bit walk.

    The simulated devices' encoder writes completions with the same
    shape, so device and host agree on the layout by construction (the
    paper's "semantic alignment"). *)

type t = {
  a_name : string;  (** field name *)
  a_header : string;
  a_semantic : string option;
  a_bit_off : int;
  a_bits : int;
  a_range : int64 * int64;
      (** certified unsigned range of values the read can return, derived
          through {!Opendesc_analysis.Absdom} from the field width and
          (when known) the registry semantic's width *)
  a_shape : Softnic.Codec.shape;  (** the field's shape, picked once *)
  a_get : bytes -> int64;  (** {!Softnic.Codec.read_int64} of [a_shape] *)
}

val reader : bit_off:int -> bits:int -> bytes -> int64
(** MSB-first field read, {!Softnic.Codec.read_int64} of the field's
    shape. Fields wider than 64 bits — reserved/padding blobs in real
    descriptors — read as 0 and write as a no-op. The shape is picked
    on every call; an accessor's [a_get] reads its [a_shape]. *)

val writer : bit_off:int -> bits:int -> bytes -> int64 -> unit
(** {!Softnic.Codec.write_int64} of the field's shape: the value's low
    [bits] bits, and no other bit of the buffer changes. *)

val of_lfield : ?registry_bits:int -> Path.lfield -> t
(** Pass [?registry_bits] (the registry width of the field's semantic)
    to tighten the certified range below the raw field width. *)

val of_layout : ?registry_width:(string -> int option) -> Path.layout -> t list
(** One accessor per field; [?registry_width] is consulted per semantic
    to tighten each certified range. *)

val read_all : Path.layout -> bytes -> (string * int64) list
(** Field name → value for a whole record (diagnostics). *)

val write_record : Path.layout -> bytes -> (Path.lfield -> int64) -> unit
(** Fill a completion record: calls the resolver for every field. The
    buffer must be at least [layout.size_bytes] long. *)
