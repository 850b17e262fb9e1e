(* Reference twins of the production engine, for differential tests,
   the soak and the benches only: the sorted-set, tuple-at-a-time
   Relation operators behind the executor signature, and the
   distributed engine and recovery supervisor instantiated over them.
   Production runs the columnar instantiation; results, steps and
   message logs must agree with these. *)

open Relalg

module Reference : Exec.S with type t = Relation.t = struct
  include Relation

  let compact = Fun.id
  let to_relation = Fun.id
  let equi_join ?partitions:_ = equi_join

  let bloom ~bits_per_key attrs r =
    Bloom.of_keys ~bits_per_key
      (List.map (fun tu -> Tuple.values_of tu attrs) (tuples r))

  let bloom_reduce filter attrs r =
    let keep tu = Bloom.mem filter (Tuple.values_of tu attrs) in
    make (header r) (List.filter keep (tuples r))
end

module Engine = struct
  let execute = Distsim.Engine.execute_with (module Reference)
end

module Recover = struct
  let execute = Distsim.Recover.execute_with (module Reference)
end

(* The first message on which two logs differ, if any: the rendering
   covers seq, endpoints, rows, bytes, note, payload, attempt, delivery
   and profile; purpose and header are compared directly, and the
   shipped rows decoded, as sets. *)
let log_mismatch ma mb =
  let open Distsim.Network in
  let key (m : message) = (Fmt.str "%a" pp_message m, m.purpose, m.header) in
  if List.compare_lengths ma mb <> 0 then
    Some (Fmt.str "%d vs %d messages" (List.length ma) (List.length mb))
  else
    List.find_map
      (fun (m, n) ->
        if key m = key n && Relation.equal (data m) (data n) then None
        else Some (Fmt.str "%a@ vs@ %a" pp_message m pp_message n))
      (List.combine ma mb)
