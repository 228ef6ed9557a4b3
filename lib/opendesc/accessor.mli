(** Constant-time accessors over completion records (§4 step 4).

    An accessor reads one field's bit slice at a fixed offset — the OCaml
    equivalent of the C/eBPF stubs the compiler emits (see {!Codegen_c}
    and {!Codegen_ebpf}). Byte-aligned power-of-two widths compile to
    single loads; everything else goes through the generic bit reader.

    The same layout drives the {e writer} side, which the simulated
    devices use to serialise completions — guaranteeing by construction
    that device and host agree on the layout (the paper's "semantic
    alignment"). *)

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
  a_get : bytes -> int64;
}

type shape =
  | Blob  (** wider than 64 bits: reads as 0 *)
  | Byte of int  (** byte offset *)
  | Be16 of int
  | Be32 of int
  | Be64 of int
  | In_word of { word : int; shift : int; mask : int64 }
      (** inside the aligned 64-bit word at byte [word]: shift the
          big-endian load right by [shift], then mask — when the buffer
          holds the whole word; otherwise the bit walk *)
  | Walk  (** the generic bit walk *)
(** How a field is read. {!reader_fn} is built from it; a decoder that
    reads in its own loop (the batched host stack) matches on it and
    reads with [Bytes] primitives, so a read returns an unboxed value. *)

val shape : bit_off:int -> bits:int -> shape

val reader : bit_off:int -> bits:int -> bytes -> int64
(** Generic MSB-first field read (specialised fast paths inside).
    Fields wider than 64 bits — reserved/padding blobs in real
    descriptors — read as 0 and write as a no-op. *)

val reader_fn : bit_off:int -> bits:int -> bytes -> int64
(** {!reader} staged: applied to [~bit_off ~bits] it picks the read
    shape once and returns the closure that reads. Stage it where a
    field is read per packet; [reader] picks the shape on every call. *)

val writer : bit_off:int -> bits:int -> bytes -> int64 -> unit

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
