open Umrs_graph

type variant = Full | Positional

(* The index of [v] in the ascending [values.(lo .. hi-1)], which holds
   it. *)
let rec rank (values : int array) v lo hi =
  let mid = (lo + hi) / 2 in
  let x = values.(mid) in
  if x = v then mid else if x < v then rank values v (mid + 1) hi else rank values v lo mid

(* Each value's label is kept at its rank among the row's distinct
   values, 0 until its first occurrence: O(q log q), no hashing. *)
let normalize_row row =
  let values = Matrix.distinct_values row in
  let k = Array.length values in
  let label = Array.make k 0 and out = Array.make (Array.length row) 0 in
  let next = ref 0 in
  for j = 0 to Array.length row - 1 do
    let r = rank values row.(j) 0 k in
    if label.(r) = 0 then begin
      incr next;
      label.(r) <- !next
    end;
    out.(j) <- label.(r)
  done;
  out

(* ------------------------------------------------------------------ *)
(* Workspace-based canonicalization.

   The enumeration engine canonicalizes d^(pq) matrices, so instead of
   scoring all q! column orders, [canonical_rows] runs the depth-first
   search over column positions described (with why it is exact) in
   canonical.mli:

   - [least_form] computes every row's F(r); the rows with the least one
     lead, minus those that split the columns like an earlier lead row.
   - [fits] admits at position k only the columns that give the lead
     row its label F(r).(k), taking columns equal in every row ([twin]
     links) in index order.
   - [advance] keeps, per depth, every row's standing against the
     incumbent's row 1 ([bound]) and cuts the path when fewer than two
     rows are still at or below it; [rebound] recomputes the standings
     when a leaf changes that row.
   - Each leaf is scored by [fill_candidate] (candidate rows built into
     scratch buffers; a stamped rename array, not a Hashtbl per row) and
     [consider], a selection loop that compares the k-th smallest
     candidate row against row k of the incumbent as soon as it is
     selected and stops at the first row that exceeds it.

   All of this state lives in the workspace, so a call allocates
   nothing. *)
(* ------------------------------------------------------------------ *)

type workspace = {
  ws_p : int;
  ws_q : int;
  scratch : int array array; (* candidate rows under the current order *)
  best : int array array;    (* incumbent minimal candidate *)
  rename : int array;        (* value -> relabelled value, stamp-guarded *)
  stamp : int array;
  mutable clock : int;
  used : bool array;         (* selection flags over scratch rows *)
  mutable has_best : bool;
  order : int array;         (* the order being built: position -> column *)
  placed : bool array;       (* columns already in [order] *)
  twin : int array;          (* nearest lower column equal in every row, or -1 *)
  forms : int array array;   (* F(r) of every row r *)
  lead : bool array;         (* rows whose paths are searched *)
  label : int array;         (* value -> its label on the lead row's path, 0 if none (Full) *)
  mult : int array;          (* value -> multiplicity in the lead row (Full) *)
  run : int array;           (* run.(k): length of the run of equal labels of the least form from k *)
  bound : int array;         (* the incumbent's row 1; all 0 until there is one *)
  standing : int array array;
      (* standing.(k).(i): sign of row i's k-prefix against bound's, on [order] *)
}

let workspace ~p ~q ~max_value =
  if p < 1 || q < 1 || max_value < 1 then invalid_arg "Canonical.workspace";
  {
    ws_p = p;
    ws_q = q;
    scratch = Array.make_matrix p q 0;
    best = Array.make_matrix p q 0;
    rename = Array.make (max_value + 1) 0;
    stamp = Array.make (max_value + 1) (-1);
    clock = 0;
    used = Array.make p false;
    has_best = false;
    order = Array.make q 0;
    placed = Array.make q false;
    twin = Array.make q (-1);
    forms = Array.make_matrix p q 0;
    lead = Array.make p false;
    label = Array.make (max_value + 1) 0;
    mult = Array.make (max_value + 1) 0;
    run = Array.make q 0;
    bound = Array.make q 0;
    standing = Array.make_matrix (q + 1) p 0;
  }

let rec compare_from q (a : int array) (b : int array) j =
  if j = q then 0
  else
    let x = a.(j) and y = b.(j) in
    if x < y then -1 else if x > y then 1 else compare_from q a b (j + 1)

let compare_rows q a b = compare_from q a b 0

(* Loops rather than Array.blit/fill: those are C calls, which cost more
   than these few-element copies. *)
let copy_row q (src : int array) (dst : int array) =
  for j = 0 to q - 1 do
    dst.(j) <- src.(j)
  done

let fill_candidate ws ~variant entries (sigma_c : int array) =
  let p = ws.ws_p and q = ws.ws_q in
  for i = 0 to p - 1 do
    let src = entries.(i) and dst = ws.scratch.(i) in
    match variant with
    | Positional ->
      for j = 0 to q - 1 do
        dst.(j) <- src.(sigma_c.(j))
      done
    | Full ->
      ws.clock <- ws.clock + 1;
      let c = ws.clock in
      let next = ref 0 in
      for j = 0 to q - 1 do
        let v = src.(sigma_c.(j)) in
        if ws.stamp.(v) <> c then begin
          incr next;
          ws.stamp.(v) <- c;
          ws.rename.(v) <- !next
        end;
        dst.(j) <- ws.rename.(v)
      done
  done

(* Index of the lexicographically smallest unused scratch row. *)
let select_min ws =
  let p = ws.ws_p and q = ws.ws_q in
  let m = ref (-1) in
  for i = 0 to p - 1 do
    if
      (not ws.used.(i))
      && (!m < 0 || compare_rows q ws.scratch.(i) ws.scratch.(!m) < 0)
    then m := i
  done;
  !m

let consider ws =
  let p = ws.ws_p and q = ws.ws_q in
  for i = 0 to p - 1 do
    ws.used.(i) <- false
  done;
  if not ws.has_best then begin
    for k = 0 to p - 1 do
      let m = select_min ws in
      ws.used.(m) <- true;
      copy_row q ws.scratch.(m) ws.best.(k)
    done;
    ws.has_best <- true
  end
  else begin
    let k = ref 0 and verdict = ref 0 in
    while !verdict = 0 && !k < p do
      let m = select_min ws in
      let c = compare_rows q ws.scratch.(m) ws.best.(!k) in
      if c > 0 then verdict := 1 (* prune: candidate already exceeds best *)
      else begin
        ws.used.(m) <- true;
        if c < 0 then begin
          (* strictly better: adopt from row k onward, no more compares *)
          verdict := -1;
          copy_row q ws.scratch.(m) ws.best.(!k)
        end
        else incr k
      end
    done;
    if !verdict = -1 then
      for k' = !k + 1 to p - 1 do
        let m = select_min ws in
        ws.used.(m) <- true;
        copy_row q ws.scratch.(m) ws.best.(k')
      done
  end

(* [count_values ws row] sets [ws.mult.(v)] to the multiplicity of
   every value [v] of [row]. *)
let count_values ws (row : int array) =
  let q = ws.ws_q and mult = ws.mult in
  for j = 0 to q - 1 do
    mult.(row.(j)) <- 0
  done;
  for j = 0 to q - 1 do
    let v = row.(j) in
    mult.(v) <- mult.(v) + 1
  done

(* Insertion sort of [a.(0 .. q-1)]: q is at most a few. *)
let sort_row q (a : int array) =
  for j = 1 to q - 1 do
    let x = a.(j) in
    let i = ref (j - 1) in
    while !i >= 0 && a.(!i) > x do
      a.(!i + 1) <- a.(!i);
      decr i
    done;
    a.(!i + 1) <- x
  done

(* F(row) into [dst]: the least form [row] takes over all column
   orders. Full sorts the columns by (multiplicity descending, value)
   and numbers the runs of equal keys 1, 2, ... *)
let least_form ws ~variant (row : int array) (dst : int array) =
  let q = ws.ws_q in
  match variant with
  | Positional ->
    copy_row q row dst;
    sort_row q dst
  | Full ->
    let base = Array.length ws.mult in
    count_values ws row;
    for j = 0 to q - 1 do
      dst.(j) <- ((q - ws.mult.(row.(j))) * base) + row.(j)
    done;
    sort_row q dst;
    let l = ref 0 and key = ref (-1) in
    for j = 0 to q - 1 do
      if dst.(j) <> !key then begin
        incr l;
        key := dst.(j)
      end;
      dst.(j) <- !l
    done

let rec same_column (entries : int array array) p a b i =
  i = p || (entries.(i).(a) = entries.(i).(b) && same_column entries p a b (i + 1))

let link_twins ws entries =
  let p = ws.ws_p and q = ws.ws_q in
  for c = 0 to q - 1 do
    let t = ref (-1) and c' = ref (c - 1) in
    while !t < 0 && !c' >= 0 do
      if same_column entries p !c' c 0 then t := !c';
      decr c'
    done;
    ws.twin.(c) <- !t
  done

(* Whether an earlier lead row splits the columns as row [r] does; run
   while [ws.scratch] holds the rows in input column order. *)
let rec searched_before ws r r' =
  r' < r
  && ((ws.lead.(r') && compare_rows ws.ws_q ws.scratch.(r') ws.scratch.(r) = 0)
     || searched_before ws r (r' + 1))

(* Whether column [c] may take position [k] on the path of lead row
   [row] towards [target] = F(row). *)
let fits ws ~variant (row : int array) (target : int array) k c =
  (not ws.placed.(c))
  && (let t = ws.twin.(c) in t < 0 || ws.placed.(t))
  &&
  match variant with
  | Positional -> row.(c) = target.(k)
  | Full ->
    let v = row.(c) in
    if k = 0 || target.(k) <> target.(k - 1) then
      ws.label.(v) = 0 && ws.mult.(v) = ws.run.(k)
    else ws.label.(v) = target.(k)

(* The label row [row] gets at position [k] of [order] while its first
   [k] labels equal [bound]'s: Positional keeps the value; Full reuses
   the bound's label at an earlier position holding the same value, or
   takes one more than the largest label so far. *)
let label_at ws ~variant (row : int array) k =
  let v = row.(ws.order.(k)) in
  match variant with
  | Positional -> v
  | Full ->
    let l = ref 0 and top = ref 0 and j = ref 0 in
    while !l = 0 && !j < k do
      let b = ws.bound.(!j) in
      if row.(ws.order.(!j)) = v then l := b;
      if b > !top then top := b;
      incr j
    done;
    if !l = 0 then !top + 1 else !l

(* Derive [standing.(k + 1)] once position [k] holds a column; false
   when the path is cut. With one row every leaf is F(r): [bound] stays
   all 0, below every label, so every path after the first leaf is cut. *)
let advance ws ~variant entries k =
  let now = ws.standing.(k) and next = ws.standing.(k + 1) in
  let alive = ref 0 in
  for i = 0 to ws.ws_p - 1 do
    let s = now.(i) in
    let s =
      if s <> 0 || not ws.has_best then s
      else
        let l = label_at ws ~variant entries.(i) k and b = ws.bound.(k) in
        if l < b then -1 else if l > b then 1 else 0
    in
    next.(i) <- s;
    if s <= 0 then incr alive
  done;
  (not ws.has_best) || !alive >= 2

(* After a leaf: if the incumbent's row 1 changed, make it the bound and
   recompute the standings along the current order, which every open
   path shares a prefix of. *)
let rebound ws ~variant entries =
  let q = ws.ws_q in
  if ws.ws_p > 1 && compare_rows q ws.bound ws.best.(1) <> 0 then begin
    copy_row q ws.best.(1) ws.bound;
    for k = 0 to q - 2 do
      ignore (advance ws ~variant entries k)
    done
  end

let rec search ws ~variant entries (row : int array) (target : int array) k =
  let q = ws.ws_q in
  if k = q then begin
    fill_candidate ws ~variant entries ws.order;
    consider ws;
    rebound ws ~variant entries
  end
  else
    for c = 0 to q - 1 do
      if fits ws ~variant row target k c then begin
        let v = row.(c) in
        let fresh = match variant with Full -> ws.label.(v) = 0 | Positional -> false in
        if fresh then ws.label.(v) <- target.(k);
        ws.order.(k) <- c;
        ws.placed.(c) <- true;
        (* the last position needs no check: [consider] scores its leaf *)
        if k + 1 = q || advance ws ~variant entries k then
          search ws ~variant entries row target (k + 1);
        ws.placed.(c) <- false;
        if fresh then ws.label.(v) <- 0
      end
    done

let canonical_rows ws ~variant entries =
  if Array.length entries <> ws.ws_p then
    invalid_arg "Canonical.canonical_rows: row count mismatch";
  let p = ws.ws_p and q = ws.ws_q in
  for r = 0 to p - 1 do
    least_form ws ~variant entries.(r) ws.forms.(r)
  done;
  let least = ref 0 in
  for r = 1 to p - 1 do
    if compare_rows q ws.forms.(r) ws.forms.(!least) < 0 then least := r
  done;
  let target = ws.forms.(!least) in
  for k = q - 1 downto 0 do
    ws.run.(k) <-
      (if k + 1 < q && target.(k + 1) = target.(k) then ws.run.(k + 1) + 1 else 1)
  done;
  link_twins ws entries;
  for k = 0 to q - 1 do
    ws.order.(k) <- k;
    ws.placed.(k) <- false
  done;
  fill_candidate ws ~variant entries ws.order;
  for r = 0 to p - 1 do
    ws.lead.(r) <- compare_rows q ws.forms.(r) target = 0 && not (searched_before ws r 0)
  done;
  ws.has_best <- false;
  for j = 0 to q - 1 do
    ws.bound.(j) <- 0
  done;
  for r = 0 to p - 1 do
    if ws.lead.(r) then begin
      let row = entries.(r) in
      (match variant with
      | Full ->
        count_values ws row;
        for j = 0 to q - 1 do
          ws.label.(row.(j)) <- 0
        done
      | Positional -> ());
      search ws ~variant entries row target 0
    end
  done;
  ws.best

(* The workspace is sized by the largest entry. Past [p * q], which
   bounds the number of distinct entries, the matrix is canonicalized by
   its ranks instead: both forms commute with any order-preserving
   relabelling (Full forgets the values, Positional only compares them),
   so Positional maps the ranks back. *)
let rec canonical ?(variant = Full) m =
  let p, q = Matrix.dims m in
  let max_value = Matrix.max_entry m in
  let entries = (m : Matrix.t).Matrix.entries in
  if max_value <= p * q then begin
    let best = canonical_rows (workspace ~p ~q ~max_value) ~variant entries in
    match variant with
    | Full -> Matrix.create best
    | Positional -> Matrix.create_relaxed best
  end
  else begin
    let values = Matrix.distinct_values (Array.concat (Array.to_list entries)) in
    let k = Array.length values in
    let ranks = Array.map (Array.map (fun v -> 1 + rank values v 0 k)) entries in
    let c = canonical ~variant (Matrix.create_relaxed ranks) in
    match variant with
    | Full -> c
    | Positional ->
      Matrix.create_relaxed (Array.map (Array.map (fun r -> values.(r - 1))) c.Matrix.entries)
  end

let is_canonical ?variant m = Matrix.equal m (canonical ?variant m)

let equivalent ?variant a b =
  let pa, qa = Matrix.dims a and pb, qb = Matrix.dims b in
  pa = pb && qa = qb
  && Matrix.equal (canonical ?variant a) (canonical ?variant b)

let random_equivalent st m =
  let p, q = Matrix.dims m in
  let m = Matrix.permute_rows m (Perm.random st p) in
  let m = Matrix.permute_cols m (Perm.random st q) in
  let rec per_row m i =
    if i >= p then m
    else begin
      let k = Matrix.row_alphabet m i in
      per_row (Matrix.permute_row_entries m i (Perm.random st k)) (i + 1)
    end
  in
  per_row m 0
