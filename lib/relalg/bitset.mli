(** Fixed-width bitsets — the selection vectors of the columnar
    executor ({!module:Batch}).

    A selection vector marks which rows of a batch survive a predicate;
    predicates evaluate column-at-a-time into bitsets and the boolean
    connectives combine them word-at-a-time, so a conjunction over a
    million rows is a few thousand [land]s instead of a million
    closure calls. *)

type t

(** [create n] is the empty set over universe [0 .. n-1]. *)
val create : int -> t

(** [full n] has all [n] bits set. *)
val full : int -> t

val length : t -> int

(** [set t i] mutates. Out-of-range indices raise [Invalid_argument]. *)
val set : t -> int -> unit

val get : t -> int -> bool

(** Number of set bits. *)
val count : t -> int

(** Word-level boolean combinations; operands must have equal
    [length]. *)
val inter : t -> t -> t

val union : t -> t -> t

(** [iter f t] calls [f] on each set index, ascending. *)
val iter : (int -> unit) -> t -> unit
