open Umrs_graph
open Umrs_bitcode

type up = Parent | Smallest_closer

(* A tree is two int arrays over its m entries (a landmark tree's
   entries are its vertices). [node.(x)] packs three [field_bits]-bit
   fields: from the top, x's DFS number, the index of its first child
   entry and its port toward the root (0 at the root). x's children
   are the entries from its first to the next entry's first, or to
   [m - 1] after the last entry, in port order; [kid.(c)] packs a
   child's last DFS number above the port to it. The children's
   subtrees tile [(dfs x, last x]], so a child's first number is one
   past its elder sibling's last, and the eldest's is [dfs x + 1].
   Every field fits while [n <= max_order]: DFS numbers and entry
   indices are below [m <= n], and on a simple graph a port is at most
   [n - 1]. *)
type tree = { node : int array; kid : int array }

let field_bits = 21
let max_order = (1 lsl field_bits) - 1
let[@inline] dfs_of w = w lsr (2 * field_bits)
let[@inline] first_of w = (w lsr field_bits) land max_order
let[@inline] port_of w = w land max_order
let[@inline] last_of k = k lsr field_bits

(* The end of x's slice of child entries. *)
let[@inline] slice_end t x =
  if x + 1 < Array.length t.node then first_of t.node.(x + 1) else Array.length t.kid

type t = {
  graph : Graph.t;
  landmark : int array;
  dist_to_a : int array;
  home : int array;
  cluster : Ball_table.t;  (* x stores v iff 0 < d(x,v) < d(v,A) *)
  trees : tree array;      (* one per landmark *)
}

(* The BFS tree that [ws]'s last search (with parents) left, over the
   [m] vertices it reached, entry [slot.(v)] for vertex v, in O(m)
   beside that search. A vertex's children are queued while it is
   expanded, in port order, and vertices are expanded in queue order,
   so walking the visit order meets each vertex's children in port
   order: bottom-up it gives the subtree sizes and the child counts,
   top-down it puts each child into its parent's next slot with the
   port the search recorded, and scans the child's row for its up
   port. A child's first DFS number is one past its elder sibling's
   last, or its parent's number plus one. [size] and [off] are scratch
   of at least [m] ints. *)
let tree g ~up ws ~slot ~size ~off =
  let m = Bfs.reached ws in
  let order = Bfs.visit_order ws and dist = Bfs.dist_array ws
  and parent = Bfs.parent_array ws and pport = Bfs.parent_port_array ws in
  (* [size.(e)] packs e's child count above its subtree size *)
  Array.fill size 0 m 1;
  for k = m - 1 downto 1 do
    let y = order.(k) in
    let p = slot.(parent.(y)) in
    size.(p) <- size.(p) + (1 lsl field_bits) + (size.(slot.(y)) land max_order)
  done;
  (* [off.(e)] is e's first child entry, then top-down its next free
     one *)
  off.(0) <- 0;
  for e = 1 to m - 1 do
    off.(e) <- off.(e - 1) + (size.(e - 1) lsr field_bits)
  done;
  let node = Array.make m 0 and kid = Array.make (m - 1) 0 in
  let root = slot.(order.(0)) in
  node.(root) <- off.(root) lsl field_bits;
  for k = 1 to m - 1 do
    let y = order.(k) in
    let py = parent.(y) in
    let p = slot.(py) and s = slot.(y) in
    let c = off.(p) in
    off.(p) <- c + 1;
    let first = if c = first_of node.(p) then dfs_of node.(p) + 1 else last_of kid.(c - 1) + 1 in
    (* the up port: a scan of y's row for its parent, or for its first
       neighbour one step closer *)
    let row = Graph.neighbors g y in
    let j = ref 0 in
    (match up with
    | Parent -> while row.(!j) <> py do incr j done
    | Smallest_closer ->
      let closer = dist.(y) - 1 in
      while dist.(row.(!j)) <> closer do incr j done);
    node.(s) <- (first lsl (2 * field_bits)) lor (off.(s) lsl field_bits) lor (!j + 1);
    kid.(c) <- ((first + (size.(s) land max_order) - 1) lsl field_bits) lor pport.(y)
  done;
  { node; kid }

let refuse fmt = Printf.ksprintf (fun s -> invalid_arg ("Landmark_core.prepare: " ^ s)) fmt

let prepare g ~landmarks ~up =
  let n = Graph.order g in
  if n > max_order then refuse "%d vertices, more than the %d a tree field holds" n max_order;
  if Array.length landmarks = 0 then refuse "no landmarks";
  Array.iteri
    (fun i l ->
      if l < 0 || l >= n then refuse "landmark %d outside the graph" l;
      if i > 0 && l <= landmarks.(i - 1) then
        refuse "landmarks not strictly increasing (%d after %d)" l landmarks.(i - 1))
    landmarks;
  let dist_to_a = Array.make n max_int and home = Array.make n 0 in
  (* one workspace for every search: the landmark trees, then the
     balls *)
  let ws = Bfs.workspace () in
  let size = Array.make n 0 and off = Array.make n 0 in
  let slot = Array.init n Fun.id (* a landmark tree's entries are its vertices *) in
  (* landmarks in index order, so a strict < keeps the smaller index
     on ties *)
  let trees =
    Array.init (Array.length landmarks) (fun i ->
        Bfs.search ~parents:true ws g landmarks.(i);
        if Bfs.reached ws < n then refuse "the graph is not connected";
        let dist = Bfs.dist_array ws in
        for v = 0 to n - 1 do
          if dist.(v) < dist_to_a.(v) then begin
            dist_to_a.(v) <- dist.(v);
            home.(v) <- i
          end
        done;
        tree g ~up ws ~slot ~size ~off)
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

let dfs_number t x = dfs_of t.node.(x)
let up_port t x = port_of t.node.(x)

(* The child whose subtree holds [dfs]: the first, in port order, whose
   last number reaches it, if [dfs] lies in (dfs x, last x] at all. *)
let child_port t x ~dfs =
  let w = t.node.(x) and stop = slice_end t x in
  let rec scan i =
    if i >= stop then None
    else begin
      let k = t.kid.(i) in
      if dfs <= last_of k then Some (port_of k) else scan (i + 1)
    end
  in
  if dfs <= dfs_of w then None else scan (first_of w)

let children t x =
  let w = t.node.(x) in
  let first = first_of w in
  Array.init (slice_end t x - first) (fun i ->
      let lo = if i = 0 then dfs_of w + 1 else last_of t.kid.(first + i - 1) + 1 in
      (port_of t.kid.(first + i), lo, last_of t.kid.(first + i)))

let routing_function d =
  let init _u v =
    let li = d.home.(v) in
    Routing_function.Packed [| v; li; dfs_of d.trees.(li).node.(v) |]
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
          match child_port t x ~dfs with Some _ as p -> p | None -> Some (port_of t.node.(x)))
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
    put p (port_of trees.(i).node.(v)) ~width:(pwidth + 1)
  done;
  let c = d.cluster in
  put_gamma p (c.Ball_table.off.(v + 1) - c.off.(v) + 1);
  for i = c.off.(v) to c.off.(v + 1) - 1 do
    put p c.dst.(i) ~width:vwidth;
    put p (c.port.(i) - 1) ~width:pwidth
  done;
  for i = 0 to Array.length trees - 1 do
    let t = trees.(i) in
    let w = t.node.(v) and stop = slice_end t v in
    put_gamma p (stop - first_of w + 1);
    let lo = ref (dfs_of w + 1) in
    for c = first_of w to stop - 1 do
      let k = t.kid.(c) in
      put p (port_of k - 1) ~width:pwidth;
      put p !lo ~width:vwidth;
      put p (last_of k) ~width:vwidth;
      lo := last_of k + 1
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
