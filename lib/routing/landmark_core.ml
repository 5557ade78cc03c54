open Umrs_graph
open Umrs_bitcode

type up = Parent | Smallest_closer

(* Every table is a flat int array. The children of [x] are the CSR
   entries [off.(x) .. off.(x+1) - 1], in port order: the port to the
   child and the last DFS number in its subtree. The children's
   subtrees tile [(dfs x, last x]], so a child's first number is one
   past its elder sibling's last, and the eldest's is [dfs x + 1]. *)
type tree = {
  dfs : int array;       (* DFS number per vertex *)
  up : int array;        (* port toward the root, 0 there *)
  off : int array;       (* n + 1 offsets into the child entries *)
  kid_port : int array;  (* per child entry: the port to it *)
  kid_last : int array;  (* per child entry: last DFS number below it *)
}

type t = {
  graph : Graph.t;
  landmark : int array;
  dist_to_a : int array;
  home : int array;
  cluster : Ball_table.t;  (* x stores v iff 0 < d(x,v) < d(v,A) *)
  trees : tree array;      (* one per landmark *)
}

(* The BFS tree of [root] that [ws]'s last search (with parents)
   left, DFS numbered with children in port order, in O(n) beside that
   search. A vertex's children are queued while it is expanded, in port
   order, and vertices are expanded in queue order, so walking the
   visit order meets each vertex's children in port order: bottom-up it
   gives the subtree sizes and the child counts, top-down it puts each
   child into its parent's next slot with the port the search recorded.
   A child's first DFS number is then one past its elder sibling's
   last, or its parent's number plus one. [size] and [fill] are scratch
   of at least [n] ints. *)
let tree g ~up ws ~size ~fill root =
  let n = Graph.order g in
  let order = Bfs.visit_order ws and dist = Bfs.dist_array ws
  and parent = Bfs.parent_array ws and pport = Bfs.parent_port_array ws in
  (* [off.(x + 1)] counts x's children, then the sums make it CSR *)
  let off = Array.make (n + 1) 0 in
  Array.fill size 0 n 1;
  for k = n - 1 downto 1 do
    let y = order.(k) in
    let p = parent.(y) in
    size.(p) <- size.(p) + size.(y);
    off.(p + 1) <- off.(p + 1) + 1
  done;
  for x = 1 to n do
    off.(x) <- off.(x) + off.(x - 1)
  done;
  Array.blit off 0 fill 0 n;
  let dfs = Array.make n 0 in
  let kid_port = Array.make (n - 1) 0 and kid_last = Array.make (n - 1) 0 in
  for k = 1 to n - 1 do
    let y = order.(k) in
    let p = parent.(y) in
    let c = fill.(p) in
    fill.(p) <- c + 1;
    let first = if c = off.(p) then dfs.(p) + 1 else kid_last.(c - 1) + 1 in
    dfs.(y) <- first;
    kid_port.(c) <- pport.(y);
    kid_last.(c) <- first + size.(y) - 1
  done;
  (* the up ports: a scan of each vertex's row for its parent, or for
     its first neighbour one step closer *)
  let ups = Array.make n 0 in
  (match up with
  | Parent ->
    for v = 0 to n - 1 do
      if v <> root then begin
        let row = Graph.neighbors g v and p = parent.(v) in
        let k = ref 0 in
        while row.(!k) <> p do
          incr k
        done;
        ups.(v) <- !k + 1
      end
    done
  | Smallest_closer ->
    for v = 0 to n - 1 do
      if v <> root then begin
        let row = Graph.neighbors g v and closer = dist.(v) - 1 in
        let k = ref 0 in
        while dist.(row.(!k)) <> closer do
          incr k
        done;
        ups.(v) <- !k + 1
      end
    done);
  { dfs; up = ups; off; kid_port; kid_last }

let prepare g ~landmarks ~up =
  let n = Graph.order g in
  let dist_to_a = Array.make n max_int and home = Array.make n 0 in
  (* one workspace for every search: the landmark trees, then the
     balls *)
  let ws = Bfs.workspace () in
  let size = Array.make n 0 and fill = Array.make n 0 in
  (* landmarks in index order, so a strict < keeps the smaller index
     on ties *)
  let trees =
    Array.init (Array.length landmarks) (fun i ->
        let root = landmarks.(i) in
        Bfs.search ~parents:true ws g root;
        let dist = Bfs.dist_array ws in
        for v = 0 to n - 1 do
          if dist.(v) < dist_to_a.(v) then begin
            dist_to_a.(v) <- dist.(v);
            home.(v) <- i
          end
        done;
        tree g ~up ws ~size ~fill root)
  in
  let cluster = Ball_table.build ws g ~radius:dist_to_a in
  { graph = g; landmark = landmarks; dist_to_a; home; cluster; trees }

let landmarks d = Array.copy d.landmark
let home d v = d.home.(v)
let dist_to_landmarks d v = d.dist_to_a.(v)
let cluster_members d x = Ball_table.members d.cluster x

let bunch d v =
  let radius = d.dist_to_a.(v) in
  if radius = 0 then [||]
  else begin
    let ws = Bfs.workspace () in
    Bfs.search ~radius ws d.graph v;
    let members = Array.sub (Bfs.visit_order ws) 1 (Bfs.reached ws - 1) in
    Array.sort compare members;
    members
  end

(* The child whose subtree holds [dfs]: the first, in port order, whose
   last number reaches it, if [dfs] lies in (dfs x, last x] at all. *)
let child_port t x ~dfs =
  let stop = t.off.(x + 1) in
  let rec scan i =
    if i >= stop then None else if dfs <= t.kid_last.(i) then Some t.kid_port.(i) else scan (i + 1)
  in
  if dfs <= t.dfs.(x) then None else scan t.off.(x)

let routing_function d =
  let init _u v =
    let li = d.home.(v) in
    Routing_function.Packed [| v; li; d.trees.(li).dfs.(v) |]
  in
  let port x h =
    match h with
    | Routing_function.Packed [| v; li; dfs |] ->
      if x = v then None
      else begin
        match Ball_table.find d.cluster x v with
        | Some _ as p -> p
        | None -> (
          let t = d.trees.(li) in
          match child_port t x ~dfs with Some _ as p -> p | None -> Some t.up.(x))
      end
    | _ -> invalid_arg "Landmark_core: malformed header"
  in
  { Routing_function.graph = d.graph; init; port; next_header = (fun _ h -> h) }

(* The encoder's bit writer. Consecutive fields are packed, most
   significant bit first, into the low [used] bits of [word], and each
   packed word of at most [word_bits] goes to [emit] in one call; a
   field wider than that goes out on its own. A field written most
   significant bit first continues the stream where the previous one
   stopped, whether or not they share a word, so the stream is the one
   that a write per field would give. 55 bits is what
   [Bitbuf.add_bits] writes with one word access. [put] does not check
   that [x] fits in [width] bits: every field here does by
   construction (ports below [2^pwidth], vertices and DFS numbers
   below [n]). *)
type packer = { emit : int -> width:int -> unit; mutable word : int; mutable used : int }

let word_bits = 55

let flush p =
  if p.used > 0 then begin
    p.emit p.word ~width:p.used;
    p.word <- 0;
    p.used <- 0
  end

(* Inlined, a field costs a compare, a shift and an OR. *)
let[@inline] put p x ~width =
  if p.used + width > word_bits then flush p;
  if width > word_bits then p.emit x ~width
  else begin
    p.word <- (p.word lsl width) lor x;
    p.used <- p.used + width
  end

(* [Codes.bits_needed x - 1], without a call into another module per
   code. *)
let floor_log2 x =
  let w = ref 0 in
  while x lsr (!w + 1) <> 0 do
    incr w
  done;
  !w

(* Elias gamma of [x >= 1]: [w] ones, a zero, then the [w] bits of [x]
   below its leading one; one field while it fits a word, else the
   ones and zero, then the bits. *)
let put_gamma p x =
  let w = floor_log2 x in
  if (2 * w) + 1 <= word_bits then
    put p ((((1 lsl w) - 1) lsl (w + 1)) lor (x - (1 lsl w))) ~width:((2 * w) + 1)
  else begin
    put p (((1 lsl w) - 1) lsl 1) ~width:(w + 1);
    put p (x - (1 lsl w)) ~width:w
  end

(* Elias delta: the gamma code of [w + 1], then the [w] bits below the
   leading one. *)
let put_delta p x =
  let w = floor_log2 x in
  put_gamma p (w + 1);
  put p (x - (1 lsl w)) ~width:w

let encode_words d v emit =
  let g = d.graph and trees = d.trees in
  let n = Graph.order g in
  let pwidth = Codes.ceil_log2 (max 2 (Graph.degree g v)) in
  let vwidth = Codes.ceil_log2 (max 2 n) in
  let p = { emit; word = 0; used = 0 } in
  put_delta p n;
  put p v ~width:vwidth;
  put_gamma p (Array.length trees + 1);
  for i = 0 to Array.length trees - 1 do
    put p trees.(i).up.(v) ~width:(pwidth + 1)
  done;
  let c = d.cluster in
  put_gamma p (c.Ball_table.off.(v + 1) - c.off.(v) + 1);
  for i = c.off.(v) to c.off.(v + 1) - 1 do
    put p c.dst.(i) ~width:vwidth;
    put p (c.port.(i) - 1) ~width:pwidth
  done;
  for i = 0 to Array.length trees - 1 do
    let t = trees.(i) in
    put_gamma p (t.off.(v + 1) - t.off.(v) + 1);
    let lo = ref (t.dfs.(v) + 1) in
    for c = t.off.(v) to t.off.(v + 1) - 1 do
      put p (t.kid_port.(c) - 1) ~width:pwidth;
      put p !lo ~width:vwidth;
      put p t.kid_last.(c) ~width:vwidth;
      lo := t.kid_last.(c) + 1
    done
  done;
  flush p

let encode_vertex d v =
  let buf = Bitbuf.create () in
  encode_words d v (fun x ~width -> Bitbuf.add_bits buf x ~width);
  buf

type decoded = {
  dec_order : int;
  dec_self : Graph.vertex;
  dec_up_ports : int array;
  dec_cluster : (Graph.vertex * Graph.port) array;
  dec_children : (Graph.port * int * int) array array;
}

let decode_vertex buf ~degree =
  let r = Bitbuf.reader buf in
  (* A count read off a corrupt record must not size an allocation the
     record cannot fill: each entry takes at least [width] bits. *)
  let count ~width what =
    let k = Codes.read_gamma r - 1 in
    if k > Bitbuf.remaining r / width then
      invalid_arg ("Landmark_core.decode_vertex: truncated " ^ what);
    k
  in
  let n = Codes.read_delta r in
  let vwidth = Codes.ceil_log2 (max 2 n) in
  let pwidth = Codes.ceil_log2 (max 2 degree) in
  let self = Codes.read_fixed r ~width:vwidth in
  let l = count ~width:(pwidth + 1) "landmark ports" in
  let up_ports = Array.init l (fun _ -> Codes.read_fixed r ~width:(pwidth + 1)) in
  let csize = count ~width:(vwidth + pwidth) "cluster table" in
  let cluster =
    Array.init csize (fun _ ->
        let w = Codes.read_fixed r ~width:vwidth in
        let p = 1 + Codes.read_fixed r ~width:pwidth in
        (w, p))
  in
  let children =
    Array.init l (fun _ ->
        let k = count ~width:(pwidth + (2 * vwidth)) "tree children" in
        Array.init k (fun _ ->
            let p = 1 + Codes.read_fixed r ~width:pwidth in
            let lo = Codes.read_fixed r ~width:vwidth in
            let hi = Codes.read_fixed r ~width:vwidth in
            (p, lo, hi)))
  in
  {
    dec_order = n;
    dec_self = self;
    dec_up_ports = up_ports;
    dec_cluster = cluster;
    dec_children = children;
  }
