(** Bloom filters over join keys — the k-bits-per-tuple semi-join
    reducer.

    In the five-step semi-join protocol of Figure 5, steps 1–2 ship the
    master's projected join column to the slave. A Bloom filter of that
    column carries the same {e reduction power} at a fraction of the
    wire cost: [bits_per_key] bits per distinct key instead of the
    key's full byte width. Membership is one-sided — [mem] never
    answers false for a key that was added — so false positives only
    inflate the step-4 ship-back (tuples the step-5 join at the master
    discards), never the query result. The filter is computed from the
    projected join column and discloses exactly the same attributes, so
    profile and audit accounting are unchanged.

    Hashing goes through {!Value.hash}, which is compatible with
    {!Value.equal} across the [Int]/[Float] numeric bridge — an
    [Int 3] key added to the filter is found when probed as
    [Float 3.], matching the executors' join semantics (NULL keys
    included: a NULL added is a NULL found). *)

type t

(** [of_keys ~bits_per_key keys] sizes the filter at
    [bits_per_key × max 1 (length keys)] bits (minimum one word) with
    [⌈bits_per_key × ln 2⌉] hash functions — the optimum for that
    load — and adds every key. Keys are positional value lists (one
    value per join-condition column).
    @raise Invalid_argument if [bits_per_key < 1]. *)
val of_keys : bits_per_key:int -> Value.t list list -> t

(** [mem t key] is true if [key] may have been added: no false
    negatives, false positives at roughly [0.6185^bits_per_key]. *)
val mem : t -> Value.t list -> bool

(** Size of the bit array — what the wire carries
    (the engine prices a filter message at [bits/8] rounded
    up). *)
val bits : t -> int

val hashes : t -> int
val byte_size : t -> int
