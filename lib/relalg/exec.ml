(** Executor signature — the relation representation and physical
    operators the distributed engine ({!Distsim.Engine.execute_with}) is
    written over. Only a shipped value's wire figures and, on demand,
    its decoded {!Relation.t} leave the representation. Production
    instantiates it with the columnar {!Batch}; the sorted-set
    {!Relation} operators instantiate it only as the test oracle. *)

module type S = sig
  type t

  val header : t -> Attribute.t list
  val cardinality : t -> int

  (** Sum of the live rows' {!Value.byte_width}s — equal to
      {!Relation.byte_size} of the decoded value. *)
  val byte_size : t -> int

  (** The value with its dead rows dropped, as it travels on the wire
      (the identity for representations without selection vectors). *)
  val compact : t -> t

  val to_relation : t -> Relation.t

  (** Each operator has the contract of its {!module:Relation}
      namesake, [Invalid_argument] conditions included. [equi_join]'s
      [partitions] fixes the number of hash partitions (and domains)
      for executors that parallelise joins; others ignore it. *)

  val project : Attribute.Set.t -> t -> t
  val select : Predicate.t -> t -> t
  val equi_join : ?partitions:int -> Joinpath.Cond.t -> t -> t -> t
  val semi_join : Joinpath.Cond.t -> t -> t -> t
  val natural_join : t -> t -> t

  (** [bloom ~bits_per_key attrs v] is the {!Bloom} filter of [v]'s
      rows projected on [attrs] (positional keys, one per row). *)
  val bloom : bits_per_key:int -> Attribute.t list -> t -> Bloom.t

  (** [bloom_reduce filter attrs v] keeps the rows of [v] whose
      [attrs] key may be in [filter]. *)
  val bloom_reduce : Bloom.t -> Attribute.t list -> t -> t
end
