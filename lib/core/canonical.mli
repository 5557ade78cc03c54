(** Canonical representatives of the equivalence [~] (Definition 2).

    Two matrices are equivalent when one maps to the other by a row
    permutation [sigma_r], a column permutation [sigma_c], and per-row
    alphabet permutations [pi_i]. The canonical representative is the
    [compare_lex]-minimal member of the class (the paper's
    minimal-index matrix).

    Algorithm. The canonical form is the least, over the [q!] column
    orders, of the candidate "relabel every row by first occurrence
    (the unique lex-minimal relabelling of a row read left to right;
    [Full] only), then sort the rows". Instead of trying every order, a
    depth-first search over column positions visits only the orders
    that can give the least candidate:

    - {b Lead rows.} Row 0 of the canonical form is the least, over the
      rows [r], of [r]'s own lex-minimal form [F(r)]. Under [Full],
      [F(r)] writes labels [1, 2, ...] repeated by [r]'s value
      multiplicities in descending order ([3 1 3 2 3] gives
      [1 1 1 2 3]); under [Positional], it is [r] sorted. Only rows
      whose [F(r)] is least can lead.
    - {b Branching.} For a lead row [r], each position takes only the
      columns that give [r] its smallest next label: under [Full], the
      current value's label while its columns remain, otherwise a new
      label for a value of largest remaining multiplicity; under
      [Positional], the smallest remaining value. These paths are
      exactly the orders under which [r] reads [F(r)], so they include
      the optimum's order.
    - {b Pruning.} Every complete path gives a candidate whose row 0 is
      [F(r)], so the {e incumbent} (the best candidate found so far)
      agrees with the optimum on row 0 and the contest is decided from
      row 1. A path is cut as soon as fewer than two rows have a prefix
      at or below the incumbent's row 1 on the positions placed: the
      candidate's row 1 would exceed the incumbent's. The incumbent is
      always a real candidate, so it is never below the canonical form,
      and the optimum's path is never cut.
    - {b Duplicates.} Columns that are equal in every row are
      interchangeable, so they are taken in index order only; lead rows
      that split the columns alike (equal after relabelling, or equal)
      have the same paths and are searched once.

    Each complete order is scored like any candidate (relabel, sort,
    compare with the incumbent), and no order that could win is
    skipped, so the result is the exact minimum. The worst case stays at
    [q!] leaves: every row has [q] distinct values (every order is then
    a path) and no two columns are equal. A random [(4,8,8)] matrix
    takes a few dozen leaves. *)

type variant =
  | Full
      (** Definition 2 as stated: row permutations, column permutations,
          and per-row alphabet permutations — the group the Theorem-1
          decoder must quotient out (port labels at each [a_i] are the
          scheme's to choose). *)
  | Positional
      (** Row and column permutations only. The paper's worked example
          of a canonical set displays 7 matrices for [2M(2,2)], which is
          the class count of this variant (the full group gives 3); both
          variants satisfy Lemma 1, whose denominator [(d!)^p] dominates
          either group's row-relabelling factor. See EXPERIMENTS.md. *)

val normalize_row : int array -> int array
(** First-occurrence relabelling: values renamed to [1, 2, ...] in
    order of first appearance — e.g. [3 1 3 2] becomes [1 2 1 3]. The
    result always uses a prefix alphabet. *)

val compare_rows : int -> int array -> int array -> int
(** [compare_rows q a b] compares two length-[q] rows lexicographically
    (monomorphic, early-exit — the comparison the engine is built on). *)

type workspace
(** Reusable scratch state for repeated canonicalization of
    equally-shaped matrices (the enumeration engine's hot path). A
    workspace is single-threaded: share nothing across domains. *)

val workspace : p:int -> q:int -> max_value:int -> workspace
(** [workspace ~p ~q ~max_value] allocates scratch for [p x q] inputs
    whose entries do not exceed [max_value]. *)

val canonical_rows :
  workspace -> variant:variant -> int array array -> int array array
(** [canonical_rows ws ~variant entries] is the canonical form of the
    matrix given as raw rows, computed by the pruned column-order
    search above without allocating: all search state lives in [ws]
    (tested to allocate under one minor word per call). The result is
    the workspace's internal buffer — valid only until the next call
    on [ws]; copy it to keep it. Rows of [entries] must have length
    [q] and values in [{1..max_value}]. *)

val canonical : ?variant:variant -> Matrix.t -> Matrix.t
(** The class representative (default [Full]). Idempotent; invariant
    under the variant's permutations of the input. Accepts relaxed
    matrices; the [Full] result always has normalized rows. Both forms
    commute with an order-preserving relabelling of the values ([Full]
    is unchanged by it), so a matrix with an entry above [p * q] is
    canonicalized by its ranks: the workspace never grows past
    [p * q + 1] values, whatever the entries. *)

val is_canonical : ?variant:variant -> Matrix.t -> bool

val equivalent : ?variant:variant -> Matrix.t -> Matrix.t -> bool
(** Same equivalence class (compares canonical forms). *)

val random_equivalent : Random.State.t -> Matrix.t -> Matrix.t
(** A uniformly-drawn combination of row, column, and alphabet
    permutations applied to the input — the property-test oracle for
    [canonical]. The input must have normalized rows. *)
