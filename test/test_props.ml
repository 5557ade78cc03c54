open Umrs_graph
open Helpers

let test_is_tree () =
  check_true "path" (Props.is_tree (Generators.path 6));
  check_true "star" (Props.is_tree (Generators.star 6));
  check_true "cycle not" (not (Props.is_tree (Generators.cycle 6)));
  check_true "disconnected not" (not (Props.is_tree (Graph.empty 3)))

let test_girth () =
  check_true "tree" (Props.girth (Generators.path 5) = None);
  check_true "triangle" (Props.girth (Generators.complete 4) = Some 3);
  check_true "C7" (Props.girth (Generators.cycle 7) = Some 7);
  check_true "hypercube" (Props.girth (Generators.hypercube 3) = Some 4)

let test_bipartite () =
  check_true "even cycle" (Props.is_bipartite (Generators.cycle 8));
  check_true "odd cycle not" (not (Props.is_bipartite (Generators.cycle 7)));
  check_true "grid" (Props.is_bipartite (Generators.grid 3 4))

let test_chordal () =
  check_true "complete" (Props.is_chordal (Generators.complete 6));
  check_true "tree" (Props.is_chordal (Generators.path 7));
  check_true "C4 not" (not (Props.is_chordal (Generators.cycle 4)));
  check_true "C6 not" (not (Props.is_chordal (Generators.cycle 6)))

let suite =
  [
    case "is_tree" test_is_tree;
    case "girth" test_girth;
    case "bipartite" test_bipartite;
    case "chordal" test_chordal;
    Gen.prop "trees are chordal and bipartite" (Gen.tree ()) (fun t ->
        Props.is_chordal t && Props.is_bipartite t);
  ]
