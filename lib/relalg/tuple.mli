(** Tuples: finite maps from attributes to values. *)

type t

val empty : t

(** [of_list bindings]; later bindings win. *)
val of_list : (Attribute.t * Value.t) list -> t

(** [columns attrs f] binds the [i]-th attribute of [attrs] to [f i].
    Partially applied to [attrs], it builds every tuple from one shared
    shape: no attribute comparisons per tuple. *)
val columns : Attribute.t list -> (int -> Value.t) -> t

val bindings : t -> (Attribute.t * Value.t) list
val add : Attribute.t -> Value.t -> t -> t

(** [find t a] is the value of [a].
    @raise Not_found when [a] is absent. *)
val find : t -> Attribute.t -> Value.t

val find_opt : t -> Attribute.t -> Value.t option
val mem : t -> Attribute.t -> bool
val attributes : t -> Attribute.Set.t

(** Keep only the given attributes. *)
val project : Attribute.Set.t -> t -> t

(** Disjoint-union of two tuples; on overlap the values must agree.
    @raise Invalid_argument if a shared attribute has distinct values. *)
val merge : t -> t -> t

(** [values_of t attrs] lists the values of [attrs], in order.
    @raise Not_found when one is absent. *)
val values_of : t -> Attribute.t list -> Value.t list

(** Total byte width (cost-model size) of the values. *)
val byte_width : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : t Fmt.t
val to_string : t -> string
