(** Columnar batch executor — dictionary-encoded columns, bitset
    selection vectors, partition-parallel hash joins. The one relation
    representation of the distributed engine: instances are encoded
    once (per federation, or per one-shot run), every plan node and
    Figure-5 step stays columnar, and only answers are decoded.

    The sorted-set operators of {!module:Relation} store tuples as
    balanced-tree sets of attribute maps: every operator pays a
    logarithmic comparison of boxed values per tuple touched. This
    executor stores a relation as one int array per column, with values
    interned in a {!Dict} shared across the operands of a run: equality
    of values is equality of ints, selections evaluate once per
    {e distinct} code and combine as bitsets, and hash joins partition
    rows by key hash and build/probe each partition on its own domain
    (OCaml 5 parallelism). Selection is lazy — [select], [semi_join]
    and [bloom_reduce] only narrow a batch's selection vector, no row
    moves — and every consumer skips the dead rows. Results are
    identical to the {!module:Relation} operators — the invariant the
    differential suites (the relation-backed engine oracle included)
    enforce.

    Set semantics are maintained as a representation invariant: the
    rows of a batch are distinct. Join keys compare like
    {!Value.compare} classes — [Int 3] and [Float 3.] share a code,
    and NULL keys match each other in joins (conditions are attribute
    pairs, not predicates; see the NULL contract in
    {!Predicate.eval}). *)

(** Shared value dictionary: interns values to dense int codes, one
    code per {!Value.equal} class, recording each code's
    {!Value.byte_width} so batches are priced without decoding. *)
module Dict : sig
  type t

  val create : unit -> t
  val intern : t -> Value.t -> int
  val value : t -> int -> Value.t

  (** Number of distinct interned values. *)
  val size : t -> int
end

type t

(** [of_relation dict r] encodes [r] column-by-column, interning every
    value into [dict]. Batches meant to be joined should share a
    dictionary (operators translate codes otherwise). *)
val of_relation : Dict.t -> Relation.t -> t

(** The executor signature. Byte sizes are summed from the
    dictionary's per-code widths; Bloom filters hash values, so they
    match filters built from the decoded rows bit for bit.
    [equi_join]'s [partitions] defaults to one below a fixed size
    (probe plus build side under 16384 rows, where spawning costs more
    than the join) and to [Domain.recommended_domain_count] above it.
    Results are partition-invariant — a property test enforces the
    one-round parallel-correctness condition: every pair of joinable
    rows meets in exactly one partition. *)
include Exec.S with type t := t

(** [eval ~lookup e] evaluates [e] batch-natively: leaves are encoded
    once into a shared dictionary, every operator stays columnar, and
    only the root is decoded back to a {!Relation.t}. Same semantics
    as {!Algebra.eval}.
    @raise Invalid_argument on expressions that do not
    {!Algebra.validate}. *)
val eval : lookup:(Schema.t -> Relation.t) -> Algebra.t -> Relation.t
