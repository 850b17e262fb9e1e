type t = Value.t Attribute.Map.t

let empty = Attribute.Map.empty

let of_list bindings =
  List.fold_left (fun m (a, v) -> Attribute.Map.add a v m) empty bindings

let columns attrs =
  let shape, _ =
    List.fold_left
      (fun (m, i) a -> (Attribute.Map.add a i m, i + 1))
      (Attribute.Map.empty, 0) attrs
  in
  fun f -> Attribute.Map.map f shape

let bindings = Attribute.Map.bindings
let add = Attribute.Map.add
let find t a = Attribute.Map.find a t
let find_opt t a = Attribute.Map.find_opt a t
let mem t a = Attribute.Map.mem a t

let attributes t =
  Attribute.Map.fold (fun a _ acc -> Attribute.Set.add a acc) t
    Attribute.Set.empty

let project attrs t =
  Attribute.Map.filter (fun a _ -> Attribute.Set.mem a attrs) t

let merge a b =
  Attribute.Map.union
    (fun attr va vb ->
      if Value.equal va vb then Some va
      else
        invalid_arg
          (Fmt.str "Tuple.merge: conflicting values for %a: %a vs %a"
             Attribute.pp_qualified attr Value.pp va Value.pp vb))
    a b

let values_of t attrs = List.map (find t) attrs

let byte_width t =
  Attribute.Map.fold (fun _ v acc -> acc + Value.byte_width v) t 0

let compare = Attribute.Map.compare Value.compare
let equal a b = compare a b = 0

let pp ppf t =
  let pp_binding ppf (a, v) = Fmt.pf ppf "%a=%a" Attribute.pp a Value.pp v in
  Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ", ") pp_binding) (bindings t)

let to_string = Fmt.to_to_string pp
