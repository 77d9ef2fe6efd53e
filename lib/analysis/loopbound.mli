(** Natural-loop detection on integer-labelled control-flow graphs.

    The WCET pass ({!Wcet}) and [amulet objdump --cfg] both need the
    same structural facts about a reconstructed CFG: which edges are
    back edges, which blocks are loop headers, what each loop's body
    is, and whether the graph is reducible at all.  This module
    computes them with the textbook construction — dominator sets (a
    forward dataflow on {!Fixpoint}), back edges as the edges whose
    target dominates their source, and natural-loop bodies by backwards
    reachability from the back edge's source — kept deliberately
    graph-generic so the same code serves block-level app CFGs
    ({!Cfi.func}) and the instruction-level graphs the WCET pass builds
    for OS stubs and runtime helpers.

    A graph without a cycle has no loop, and most graphs have none: a
    campaign pass analyses 560 graphs, 530 of them loop-free.  So one
    DFS runs first, in time linear in the reachable graph, and only a
    cyclic graph pays for the dominator sets. *)

type node = { n_id : int; n_succs : int list }
(** Node ids are addresses in practice but carry no meaning here.
    Successors pointing at ids absent from the graph are ignored
    (e.g. edges that leave the analysed span). *)

type graph = { g_entry : int; g_nodes : node list }

type loop = {
  l_header : int;  (** back-edge target; dominates every body node *)
  l_back_edges : (int * int) list;  (** [(src, header)], all into [l_header] *)
  l_body : int list;
      (** every node of the natural loop, header included, sorted;
          loops sharing a header are merged *)
}

type verdict =
  | Reducible of loop list
      (** loops sorted innermost-first (by body size), so a WCET pass
          can collapse them in order: a nested loop's body is a strict
          subset of its outer loop's body *)
  | Irreducible of { edge_src : int; edge_dst : int }
      (** a retreating edge whose target does not dominate its source:
          a loop with multiple entries, which no iteration bound
          expressed per-header can soundly summarise *)

val analyze : graph -> verdict
(** Only the part of the graph reachable from [g_entry] is considered. *)

val of_func : Cfi.func -> graph
(** Block-level graph of a reconstructed function: node ids are block
    addresses, edges are [b_succs] (edge kinds dropped). *)
