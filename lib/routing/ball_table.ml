open Umrs_graph

type t = { off : int array; dst : int array; port : int array }

(* An int array that doubles as it fills. *)
type ints = { mutable a : int array; mutable len : int }

let push b x =
  if b.len = Array.length b.a then begin
    let a = Array.make ((2 * b.len) + 64) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

(* x <> v stores v iff d(x,v) < radius.(v): x lies in v's ball. The
   balls are walked in increasing v, one word per member x (x above bit
   31, x's port toward v below: both are below n, so this holds for
   n <= 2^31), v's entries from first.(v); a stable counting sort by x
   then leaves each table sorted by destination. *)
let build ws g ~radius =
  let n = Graph.order g in
  let buf = { a = [||]; len = 0 } in
  let first = Array.make (n + 1) 0 and off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    first.(v) <- buf.len;
    if radius.(v) > 1 then begin
      Bfs.search ~radius:radius.(v) ws g v;
      let ball = Bfs.visit_order ws and dist = Bfs.dist_array ws in
      for j = 1 to Bfs.reached ws - 1 do
        let x = ball.(j) in
        push buf ((x lsl 31) lor Bfs.port_toward g dist x);
        off.(x + 1) <- off.(x + 1) + 1
      done
    end
  done;
  first.(n) <- buf.len;
  for x = 0 to n - 1 do
    off.(x + 1) <- off.(x + 1) + off.(x)
  done;
  let fill = Array.sub off 0 n in
  let dst = Array.make buf.len 0 and port = Array.make buf.len 0 in
  for v = 0 to n - 1 do
    for e = first.(v) to first.(v + 1) - 1 do
      let w = buf.a.(e) in
      let x = w lsr 31 in
      dst.(fill.(x)) <- v;
      port.(fill.(x)) <- w land ((1 lsl 31) - 1);
      fill.(x) <- fill.(x) + 1
    done
  done;
  { off; dst; port }

(* Top level, so a lookup allocates no closure. *)
let rec bin t v lo hi =
  if lo > hi then None
  else begin
    let mid = (lo + hi) / 2 in
    let w = t.dst.(mid) in
    if w = v then Some t.port.(mid) else if w < v then bin t v (mid + 1) hi else bin t v lo (mid - 1)
  end

let find t x v = bin t v t.off.(x) (t.off.(x + 1) - 1)

let members t x = Array.sub t.dst t.off.(x) (t.off.(x + 1) - t.off.(x))
