(** eBPF/XDP stub synthesis.

    The paper's prototype "enables access to the metadata sent from the
    NIC in eBPF through XDP": the driver places the raw completion record
    in the XDP metadata area ([data_meta]), and the generated program
    reads fields at fixed offsets after a single bounds check — which is
    what makes the access verifier-safe.

    The output is a complete XDP C program: the metadata struct, the
    bounds check, one inline accessor per provided field, and a sample
    program body that loads every requested field. *)

val generate : nic:string -> path:Path.t -> requested:string list -> string
(** The full program. [requested] lists the intent semantics; provided
    ones are loaded in the sample body, missing ones are marked for
    software computation in the XDP program itself. *)
