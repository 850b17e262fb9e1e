(* Columnar batches: one int array per column, values interned to
   dense codes. Every operator preserves the representation invariant
   that rows are distinct (set semantics), so decoding through
   [to_relation] never collapses anything. *)

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

module Dict = struct
  type t = {
    mutable values : Value.t array; (* code -> value *)
    mutable widths : int array; (* code -> Value.byte_width *)
    mutable size : int;
    codes : int VH.t; (* value -> code *)
  }

  let create () =
    {
      values = Array.make 64 Value.Null;
      widths = Array.make 64 0;
      size = 0;
      codes = VH.create 256;
    }

  let grow a c fill =
    let bigger = Array.make (2 * c) fill in
    Array.blit a 0 bigger 0 c;
    bigger

  let intern t v =
    match VH.find_opt t.codes v with
    | Some c -> c
    | None ->
      let c = t.size in
      if c = Array.length t.values then begin
        t.values <- grow t.values c Value.Null;
        t.widths <- grow t.widths c 0
      end;
      (* Value.equal classes share a byte width (Int/Float are both 8),
         so the first representative prices every member. *)
      t.values.(c) <- v;
      t.widths.(c) <- Value.byte_width v;
      t.size <- c + 1;
      VH.add t.codes v c;
      c

  let value t c = t.values.(c)
  let size t = t.size
  let find_opt t v = VH.find_opt t.codes v
end

type t = {
  dict : Dict.t;
  header : Attribute.t list;
  cols : int array array; (* cols.(i) holds the codes of header_i *)
  nrows : int; (* physical rows; the live ones are marked by [sel] *)
  sel : Bitset.t option; (* None = every physical row is live *)
}

(* Row keys are small code arrays; structural equality is exact on int
   arrays and the polymorphic hash samples enough positions for the
   narrow keys used here (multi-attribute join conditions). *)
module Rowtbl = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash = Hashtbl.hash
end)

let header t = t.header

let cardinality t =
  match t.sel with None -> t.nrows | Some bs -> Bitset.count bs

(* Selection is lazy: [select] only narrows [sel], leaving the columns
   in place, and every consumer skips dead rows. [live t] is the
   selection vector as a concrete bitset for the consumers' row
   loops. *)
let live t = match t.sel with Some bs -> bs | None -> Bitset.full t.nrows

let of_relation dict rel =
  let header = Relation.header rel in
  let tuples = Relation.tuples rel in
  let nrows = List.length tuples in
  let ncols = List.length header in
  let cols = Array.init ncols (fun _ -> Array.make nrows 0) in
  (match tuples with
  | [] -> ()
  | first :: _ ->
    (* Every tuple of a relation yields its bindings in one fixed
       attribute order: position that order against the header once,
       then encode by walking each tuple's bindings — no per-cell map
       lookup. *)
    let pos_of a =
      let rec go i = function
        | [] -> invalid_arg "Batch.of_relation: attribute not in header"
        | x :: rest -> if Attribute.equal x a then i else go (i + 1) rest
      in
      go 0 header
    in
    let perm =
      Array.of_list (List.map (fun (a, _) -> pos_of a) (Tuple.bindings first))
    in
    List.iteri
      (fun ri tu ->
        List.iteri
          (fun j (_, v) -> cols.(perm.(j)).(ri) <- Dict.intern dict v)
          (Tuple.bindings tu))
      tuples);
  { dict; header; cols; nrows; sel = None }

let indices_of_bitset bs =
  let out = Array.make (Bitset.count bs) 0 in
  let i = ref 0 in
  Bitset.iter
    (fun ri ->
      out.(!i) <- ri;
      incr i)
    bs;
  out

(* Live row indices, ascending. *)
let live_indices b =
  match b.sel with
  | None -> Array.init b.nrows (fun i -> i)
  | Some bs -> indices_of_bitset bs

let to_relation b =
  let idx = live_indices b and tuple = Tuple.columns b.header in
  let tuples = ref [] in
  for i = Array.length idx - 1 downto 0 do
    let ri = idx.(i) in
    tuples := tuple (fun ci -> Dict.value b.dict b.cols.(ci).(ri)) :: !tuples
  done;
  Relation.make b.header !tuples

let attribute_set b = Attribute.Set.of_list b.header

let col_index b a =
  let rec go i = function
    | [] -> invalid_arg "Batch: attribute not in header"
    | x :: rest -> if Attribute.equal x a then i else go (i + 1) rest
  in
  go 0 b.header

(* Gather the rows whose indices are listed, in order; the result is
   dense (no selection vector). *)
let gather_rows b idx =
  let n = Array.length idx in
  let cols =
    Array.map
      (fun col ->
        let out = Array.make n 0 in
        for i = 0 to n - 1 do
          out.(i) <- col.(idx.(i))
        done;
        out)
      b.cols
  in
  { b with cols; nrows = n; sel = None }

let compact b =
  match b.sel with None -> b | Some bs -> gather_rows b (indices_of_bitset bs)

(* Priced from codes: every interned value carries its byte width. *)
let byte_size b =
  let widths = b.dict.Dict.widths and total = ref 0 in
  let row ri =
    Array.iter (fun col -> total := !total + widths.(col.(ri))) b.cols
  in
  (match b.sel with
   | None ->
     for ri = 0 to b.nrows - 1 do
       row ri
     done
   | Some bs -> Bitset.iter row bs);
  !total

(* Intersect [bs] (over the physical rows) into [b]'s selection
   vector: no rows move. *)
let narrow b bs =
  let bs = match b.sel with None -> bs | Some s -> Bitset.inter bs s in
  if Bitset.count bs = cardinality b then b else { b with sel = Some bs }

(* ------------------------------------------------------------------ *)
(* Projection.                                                         *)

let project attrs b =
  if Attribute.Set.is_empty attrs then
    invalid_arg "Batch.project: empty attribute set";
  let header_set = attribute_set b in
  if not (Attribute.Set.subset attrs header_set) then
    invalid_arg
      (Fmt.str "Batch.project: %a not within header %a" Attribute.Set.pp
         (Attribute.Set.diff attrs header_set)
         Attribute.Set.pp header_set);
  let keep_pos =
    List.concat
      (List.mapi
         (fun i a -> if Attribute.Set.mem a attrs then [ i ] else [])
         b.header)
  in
  if List.length keep_pos = Array.length b.cols then b
  else begin
    let header = List.filter (fun a -> Attribute.Set.mem a attrs) b.header in
    let pos = Array.of_list keep_pos in
    (* Dropping columns can merge rows: dedup on the projected codes
       with an open-addressing set of row indices, hashed from the
       codes and compared column by column — no per-row allocation,
       whatever the width. *)
    let cols = Array.map (fun ci -> b.cols.(ci)) pos in
    let rows = live_indices b in
    let nlive = Array.length rows in
    let cap = ref 16 in
    while !cap < 2 * nlive do
      cap := !cap * 2
    done;
    let mask = !cap - 1 in
    let slots = Array.make !cap (-1) in
    let hash ri =
      Array.fold_left (fun h col -> (h * 0x100000001b3) lxor col.(ri)) 0 cols
      * 0x2545f4914f6cdd1d
    in
    let same ri rj = Array.for_all (fun col -> col.(ri) = col.(rj)) cols in
    let idx = Array.make nlive 0 and nkept = ref 0 in
    Array.iter
      (fun ri ->
        let s = ref (hash ri land max_int land mask) in
        while slots.(!s) <> -1 && not (same slots.(!s) ri) do
          s := (!s + 1) land mask
        done;
        if slots.(!s) = -1 then begin
          slots.(!s) <- ri;
          idx.(!nkept) <- ri;
          incr nkept
        end)
      rows;
    let idx = Array.sub idx 0 !nkept in
    gather_rows { b with header; cols } idx
  end

(* ------------------------------------------------------------------ *)
(* Selection: predicates evaluate into bitsets, column at a time, with
   a per-(atom, column) memo so each distinct code is compared once.   *)

let eval_atom b cmp col_i operand =
  let bs = Bitset.create b.nrows in
  let col = b.cols.(col_i) in
  (match operand with
   | Predicate.Const v ->
     if Dict.size b.dict > b.nrows then
       (* Narrow batch under a wide dictionary: per-row evaluation
          beats zeroing a code-wide memo. *)
       for ri = 0 to b.nrows - 1 do
         if Predicate.compare_values cmp (Dict.value b.dict col.(ri)) v then
           Bitset.set bs ri
       done
     else begin
       (* Memo over codes: '\000' unseen, '\001' sat, '\002' unsat. *)
       let memo = Bytes.make (Dict.size b.dict) '\000' in
       for ri = 0 to b.nrows - 1 do
         let c = col.(ri) in
         let verdict =
           match Bytes.get memo c with
           | '\001' -> true
           | '\002' -> false
           | _ ->
             let sat = Predicate.compare_values cmp (Dict.value b.dict c) v in
             Bytes.set memo c (if sat then '\001' else '\002');
             sat
         in
         if verdict then Bitset.set bs ri
       done
     end
   | Predicate.Attr a2 ->
     let col2 = b.cols.(col_index b a2) in
     let null_code = Dict.find_opt b.dict Value.Null in
     let is_null c = null_code = Some c in
     (match cmp with
      | Predicate.Eq ->
        (* Codes are Value.equal classes, so equality is code
           equality — except NULL, which matches nothing. *)
        for ri = 0 to b.nrows - 1 do
          let ca = col.(ri) in
          if ca = col2.(ri) && not (is_null ca) then Bitset.set bs ri
        done
      | Predicate.Neq ->
        for ri = 0 to b.nrows - 1 do
          let ca = col.(ri) and cb = col2.(ri) in
          if ca <> cb && (not (is_null ca)) && not (is_null cb) then
            Bitset.set bs ri
        done
      | Predicate.Lt | Le | Gt | Ge ->
        for ri = 0 to b.nrows - 1 do
          if
            Predicate.compare_values cmp
              (Dict.value b.dict col.(ri))
              (Dict.value b.dict col2.(ri))
          then Bitset.set bs ri
        done));
  bs

(* [negated] pushes Not down to the atoms (the same De Morgan +
   comparison-flip rewrite as Predicate.eval), so NULL-bearing rows
   fail a predicate and its negation alike. *)
let rec eval_pred b ~negated = function
  | Predicate.True ->
    if negated then Bitset.create b.nrows else Bitset.full b.nrows
  | Predicate.And (p, q) ->
    let bp = eval_pred b ~negated p and bq = eval_pred b ~negated q in
    if negated then Bitset.union bp bq else Bitset.inter bp bq
  | Predicate.Or (p, q) ->
    let bp = eval_pred b ~negated p and bq = eval_pred b ~negated q in
    if negated then Bitset.inter bp bq else Bitset.union bp bq
  | Predicate.Not p -> eval_pred b ~negated:(not negated) p
  | Predicate.Cmp (a, cmp, operand) ->
    let cmp = if negated then Predicate.negate_comparison cmp else cmp in
    eval_atom b cmp (col_index b a) operand

(* No rows move: the predicate evaluates over the physical rows (dead
   rows are harmless — their codes are real values) and the result
   intersects into the selection vector. *)
let select pred b =
  let header_set = attribute_set b in
  if not (Attribute.Set.subset (Predicate.attributes pred) header_set) then
    invalid_arg "Batch.select: predicate mentions unknown attributes";
  narrow b (eval_pred b ~negated:false pred)

(* ------------------------------------------------------------------ *)
(* Joins.                                                              *)

let check_side op side_name side_attrs b =
  let header_set = attribute_set b in
  List.iter
    (fun a ->
      if not (Attribute.Set.mem a header_set) then
        invalid_arg
          (Fmt.str "Batch.%s: %s attribute %a not in operand header" op
             side_name Attribute.pp_qualified a))
    side_attrs

(* Re-encode [b] into [dst]'s dictionary so joins compare codes
   directly. A no-op when the dictionary is already shared (the case
   in [eval], where all leaves intern into one dict). *)
let translate dst b =
  if b.dict == dst then b
  else begin
    let tr =
      Array.init (Dict.size b.dict) (fun c -> Dict.intern dst (Dict.value b.dict c))
    in
    {
      b with
      dict = dst;
      cols = Array.map (fun col -> Array.map (fun c -> tr.(c)) col) b.cols;
    }
  end

let positions b side = Array.of_list (List.map (col_index b) side)

let key_at cols pos ri = Array.map (fun ci -> cols.(ci).(ri)) pos

(* Growable int vector for probe outputs. *)
type grower = { mutable buf : int array; mutable n : int }

let grower () = { buf = Array.make 256 0; n = 0 }

let push g v =
  if g.n = Array.length g.buf then begin
    let bigger = Array.make (2 * g.n) 0 in
    Array.blit g.buf 0 bigger 0 g.n;
    g.buf <- bigger
  end;
  g.buf.(g.n) <- v;
  g.n <- g.n + 1

let default_partitions () = max 1 (min 8 (Domain.recommended_domain_count () - 1))

(* Below this many physical rows (probe plus build side) a join runs on
   the calling domain: spawning costs more than the join itself. *)
let small_join_rows = 16_384

(* Probe chunks run on their own domains; every joinable pair meets in
   exactly one chunk (the build side is complete in every chunk), so
   the result is partition-invariant by construction. *)
let chunked ~nparts ~lrows work =
  let chunk = (lrows + nparts - 1) / nparts in
  let work p = work ~lo:(p * chunk) ~hi:(min lrows ((p + 1) * chunk)) in
  if nparts = 1 then [| work 0 |]
  else
    Array.map Domain.join
      (Array.init nparts (fun p -> Domain.spawn (fun () -> work p)))

(* Single-attribute join over a dense code space: bucket the build
   side's row indices per code in two counting passes — no per-row
   allocation, no hashing. Work is proportional to rows + codes, so
   this is for dictionaries no wider than the data. *)
let join_codes_dense ~nparts ~lsel ~rsel lcol rcol lrows rrows ncodes =
  let count = Array.make (ncodes + 1) 0 in
  for ri = 0 to rrows - 1 do
    if Bitset.get rsel ri then count.(rcol.(ri)) <- count.(rcol.(ri)) + 1
  done;
  (* Exclusive prefix sum: count.(c) becomes the start of bucket c. *)
  let acc = ref 0 in
  for c = 0 to ncodes do
    let n = count.(c) in
    count.(c) <- !acc;
    acc := !acc + n
  done;
  let bucket = Array.make (max 1 rrows) 0 in
  for ri = 0 to rrows - 1 do
    if Bitset.get rsel ri then begin
      let c = rcol.(ri) in
      bucket.(count.(c)) <- ri;
      count.(c) <- count.(c) + 1
    end
  done;
  (* Filling advanced every start to its end: bucket c now spans
     [if c = 0 then 0 else count.(c-1), count.(c)). *)
  chunked ~nparts ~lrows (fun ~lo ~hi ->
      let lg = grower () and rg = grower () in
      for li = lo to hi - 1 do
        if Bitset.get lsel li then begin
          let c = lcol.(li) in
          let b0 = if c = 0 then 0 else count.(c - 1) in
          for bi = b0 to count.(c) - 1 do
            push lg li;
            push rg bucket.(bi)
          done
        end
      done;
      (lg, rg))

(* Single-attribute join over a sparse code space: a compact
   open-addressing multimap (code -> chain of build rows) sized by the
   build side, for dictionaries much wider than the operand — probing
   touches a few cache lines instead of a code-wide array. *)
let join_codes_sparse ~nparts ~lsel ~rsel lcol rcol lrows rrows =
  let cap = ref 16 in
  while !cap < 2 * rrows do
    cap := !cap * 2
  done;
  let cap = !cap in
  let mask = cap - 1 in
  let slot_code = Array.make cap (-1) in
  let slot_head = Array.make cap (-1) in
  let next = Array.make (max 1 rrows) (-1) in
  let slot_of c =
    let s = ref (c * 0x2545f4914f6cdd1d land max_int land mask) in
    while slot_code.(!s) <> c && slot_code.(!s) <> -1 do
      s := (!s + 1) land mask
    done;
    !s
  in
  for ri = 0 to rrows - 1 do
    if Bitset.get rsel ri then begin
      let s = slot_of rcol.(ri) in
      slot_code.(s) <- rcol.(ri);
      next.(ri) <- slot_head.(s);
      slot_head.(s) <- ri
    end
  done;
  chunked ~nparts ~lrows (fun ~lo ~hi ->
      let lg = grower () and rg = grower () in
      for li = lo to hi - 1 do
        if Bitset.get lsel li then begin
          let rj = ref slot_head.(slot_of lcol.(li)) in
          while !rj <> -1 do
            push lg li;
            push rg !rj;
            rj := next.(!rj)
          done
        end
      done;
      (lg, rg))

(* Matching row pairs of [l] (on its [lpos] columns) and [r] (on
   [rpos]), as per-partition (left rows, right rows) vectors.
   Single-attribute keys take the code paths above; multi-attribute
   keys are hash-partitioned: rows are routed to a partition by the
   hash of their key codes, so every pair of joinable rows meets in
   exactly one partition (the one-round parallel-correctness
   condition), and each partition builds over its right rows and
   probes its left rows on its own domain. *)
let matches ?partitions l lpos r rpos =
  let nparts =
    match partitions with
    | Some p when p >= 1 -> p
    | Some _ -> invalid_arg "Batch.equi_join: partitions must be >= 1"
    | None ->
      if l.nrows + r.nrows < small_join_rows then 1 else default_partitions ()
  in
  let lsel = live l and rsel = live r in
  if Array.length lpos = 1 then begin
    let lcol = l.cols.(lpos.(0)) and rcol = r.cols.(rpos.(0)) in
    let ncodes = Dict.size l.dict in
    if ncodes <= (8 * r.nrows) + 1024 then
      join_codes_dense ~nparts ~lsel ~rsel lcol rcol l.nrows r.nrows ncodes
    else join_codes_sparse ~nparts ~lsel ~rsel lcol rcol l.nrows r.nrows
  end
  else begin
    let part_of cols pos ri =
      let h = ref 0x811c9dc5 in
      Array.iter (fun ci -> h := (!h * 0x01000193) lxor cols.(ci).(ri)) pos;
      !h land max_int mod nparts
    in
    let lparts = Array.make nparts [] and rparts = Array.make nparts [] in
    for ri = l.nrows - 1 downto 0 do
      if Bitset.get lsel ri then begin
        let p = part_of l.cols lpos ri in
        lparts.(p) <- ri :: lparts.(p)
      end
    done;
    for ri = r.nrows - 1 downto 0 do
      if Bitset.get rsel ri then begin
        let p = part_of r.cols rpos ri in
        rparts.(p) <- ri :: rparts.(p)
      end
    done;
    let work lrows rrows =
      let tbl = Rowtbl.create (max 16 (List.length rrows)) in
      List.iter (fun ri -> Rowtbl.add tbl (key_at r.cols rpos ri) ri) rrows;
      let lg = grower () and rg = grower () in
      List.iter
        (fun li ->
          List.iter
            (fun rj ->
              push lg li;
              push rg rj)
            (Rowtbl.find_all tbl (key_at l.cols lpos li)))
        lrows;
      (lg, rg)
    in
    if nparts = 1 then [| work lparts.(0) rparts.(0) |]
    else
      Array.map Domain.join
        (Array.init nparts (fun p ->
             Domain.spawn (fun () -> work lparts.(p) rparts.(p))))
  end

(* The result rows of [matches]: every column of [l], then the columns
   [rkeep] of [r]. *)
let assemble l r rkeep results =
  let total = Array.fold_left (fun acc (lg, _) -> acc + lg.n) 0 results in
  let ncols_l = Array.length l.cols and ncols_r = Array.length rkeep in
  let cols = Array.init (ncols_l + ncols_r) (fun _ -> Array.make total 0) in
  let off = ref 0 in
  Array.iter
    (fun (lg, rg) ->
      for i = 0 to lg.n - 1 do
        let li = lg.buf.(i) and rj = rg.buf.(i) in
        for ci = 0 to ncols_l - 1 do
          cols.(ci).(!off + i) <- l.cols.(ci).(li)
        done;
        for ci = 0 to ncols_r - 1 do
          cols.(ncols_l + ci).(!off + i) <- r.cols.(rkeep.(ci)).(rj)
        done
      done;
      off := !off + lg.n)
    results;
  let rheader = Array.of_list r.header in
  let header = l.header @ List.map (Array.get rheader) (Array.to_list rkeep) in
  { dict = l.dict; header; cols; nrows = total; sel = None }

let equi_join ?partitions cond l r =
  let jl = Joinpath.Cond.left cond and jr = Joinpath.Cond.right cond in
  check_side "equi_join" "left" jl l;
  check_side "equi_join" "right" jr r;
  if not (Attribute.Set.disjoint (attribute_set l) (attribute_set r)) then
    invalid_arg "Batch.equi_join: operands share attributes";
  let r = translate l.dict r in
  (* Distinct left rows x distinct right rows: concatenated rows are
     distinct, no dedup pass needed. *)
  assemble l r
    (Array.init (Array.length r.cols) Fun.id)
    (matches ?partitions l (positions l jl) r (positions r jr))

let semi_join cond l r =
  let jl = Joinpath.Cond.left cond and jr = Joinpath.Cond.right cond in
  check_side "semi_join" "left" jl l;
  check_side "semi_join" "right" jr r;
  let r = translate l.dict r in
  let lpos = positions l jl and rpos = positions r jr in
  let rsel = live r in
  let bs = Bitset.create l.nrows in
  (if Array.length lpos = 1 then begin
     (* Dense-code membership: one byte per dictionary code. *)
     let lcol = l.cols.(lpos.(0)) and rcol = r.cols.(rpos.(0)) in
     let present = Bytes.make (Dict.size l.dict) '\000' in
     for ri = 0 to r.nrows - 1 do
       if Bitset.get rsel ri then Bytes.set present rcol.(ri) '\001'
     done;
     for ri = 0 to l.nrows - 1 do
       if Bytes.get present lcol.(ri) = '\001' then Bitset.set bs ri
     done
   end
   else begin
     let keys = Rowtbl.create (max 16 r.nrows) in
     for ri = 0 to r.nrows - 1 do
       if Bitset.get rsel ri then
         Rowtbl.replace keys (key_at r.cols rpos ri) ()
     done;
     for ri = 0 to l.nrows - 1 do
       if Rowtbl.mem keys (key_at l.cols lpos ri) then Bitset.set bs ri
     done
   end);
  (* Matches over the physical left rows, narrowed to the live ones. *)
  narrow l bs

let natural_join l r =
  let shared =
    Attribute.Set.inter (attribute_set l) (attribute_set r)
    |> Attribute.Set.elements
  in
  if shared = [] then
    invalid_arg "Batch.natural_join: headers share no attribute";
  let r = translate l.dict r in
  let is_shared a = List.exists (Attribute.equal a) shared in
  let r_only =
    List.concat
      (List.mapi (fun i a -> if is_shared a then [] else [ i ]) r.header)
  in
  (* Matching rows agree on the shared columns, so two result rows
     coincide only if both source rows do: distinctness is
     preserved. *)
  assemble l r (Array.of_list r_only)
    (matches l (positions l shared) r (positions r shared))

(* Bloom filters hash values (Value.hash), not codes, so a filter built
   here probes exactly like one built from the decoded rows. *)
let key_values b pos ri =
  Array.to_list (Array.map (fun ci -> Dict.value b.dict b.cols.(ci).(ri)) pos)

let bloom ~bits_per_key attrs b =
  let pos = positions b attrs in
  Bloom.of_keys ~bits_per_key
    (Array.to_list (Array.map (key_values b pos) (live_indices b)))

let bloom_reduce filter attrs b =
  let pos = positions b attrs in
  let bs = Bitset.create b.nrows in
  Array.iter
    (fun ri -> if Bloom.mem filter (key_values b pos ri) then Bitset.set bs ri)
    (live_indices b);
  narrow b bs

(* ------------------------------------------------------------------ *)
(* Batch-native evaluation.                                            *)

let eval ~lookup e =
  (match Algebra.validate e with
   | Ok () -> ()
   | Error err -> invalid_arg (Fmt.str "Batch.eval: %a" Algebra.pp_error err));
  let dict = Dict.create () in
  let rec go = function
    | Algebra.Relation schema -> of_relation dict (lookup schema)
    | Algebra.Project (attrs, e) -> project attrs (go e)
    | Algebra.Select (pred, e) -> select pred (go e)
    | Algebra.Join (cond, le, re) ->
      let lb = go le and rb = go re in
      let cond =
        match
          Algebra.oriented_cond cond ~left_out:(Algebra.output le)
            ~right_out:(Algebra.output re)
        with
        | Some c -> c
        | None -> assert false (* validated above *)
      in
      equi_join cond lb rb
  in
  to_relation (go e)
