package repro.core

import repro.dict.Dictionary
import repro.fst.{BlowUpException, Fst, StepRow}
import repro.fst.FstSimulator.Lanes

/** NFA over output sets, used by D-CAND to represent `ρk(T)` — the candidate
  * subsequences of input sequence `T` with pivot item `k` — in compressed form
  * (Sec. VI-A).
  *
  * States are `0 until numStates`, state 0 initial. An edge is labeled with an
  * output set (sorted fid array): following it consumes one output item chosen
  * from the set. The NFA accepts a candidate iff some path from the root to a
  * final state spells it.
  *
  * State `q`'s edges are `labelId, target` pairs in `edges(q)`; `labels(id)` is
  * label `id`'s item set, and distinct ids name distinct sets.
  */
final class Nfa(
    val isFinal: Array[Boolean],
    val edges: Array[Array[Int]],
    val labels: Array[Array[Int]]
) extends Serializable {
  def numStates: Int = isFinal.length
}

object Nfa {

  /** Revuz-style minimization of an acyclic NFA (the trie): merge states with
    * identical (finality, outgoing transition set) bottom-up, children first,
    * so equivalent suffixes collapse. Linear in the NFA's size up to the sort
    * of each state's edges. The result accepts exactly the same language;
    * states unreachable from the root are dropped.
    *
    * One DFS from the root, children in edge order, classes each state in
    * [[RevuzClasses]] as it returns from it, as [[buildForSequence]] does
    * while it builds.
    */
  def minimize(nfa: Nfa): Nfa = {
    val classes = new RevuzClasses(merge = true)
    val classOf = Array.fill(nfa.numStates)(-1)
    val pairs = new Array[Int](nfa.edges.iterator.map(_.length).max) // `labelId, class` of q's edges

    def visit(q: Int): Int = {
      val es = nfa.edges(q)
      var j = 1
      while (j < es.length) { if (classOf(es(j)) < 0) classOf(es(j)) = visit(es(j)); j += 2 }
      j = 0
      while (j < es.length) { pairs(j) = es(j); pairs(j + 1) = classOf(es(j + 1)); j += 2 }
      classes.classOf(nfa.isFinal(q), pairs, 0, es.length / 2)
    }

    visit(0)
    classes.result(nfa.labels)
  }

  /** Build the per-pivot NFAs for input sequence `t` (Sec. VI-A): for each
    * pivot `k` of `t` (Th. 1, found by [[PivotSearch.search]]), the trie of the
    * restricted label strings of the accepting runs `r` with `k ∈ K(r)`, minimized.
    *
    * A run's label string is its non-ε output sets, each restricted to its
    * items `<= k` (a slice of the sorted set, interned once per sequence).
    * The trie is not built run by run: [[PivotTries]] walks it by one DFS
    * over trie nodes, each the set of product states the runs spelling its
    * label prefix can be in, and classes every node in [[RevuzClasses]] as
    * the DFS returns from it (Revuz on the fly), so the minimized NFA comes
    * out directly. With `minimize = false` every node is its own class, which
    * gives the trie as built.
    *
    * The NFAs, with their edge order, equal those of inserting the accepting
    * runs one by one, in enumeration order, into the tries of their pivots
    * and then applying [[minimize]]; their serialized bytes are the same.
    *
    * @param maxFid   largest frequent fid, `dict.maxFrequentFid(σ)`
    * @param maxNodes cap on the trie nodes expanded for `t`, over all its
    *                 pivots; one more throws [[BlowUpException]]
    * @return map pivot -> NFA; empty if `t` has no accepting run.
    */
  def buildForSequence(
      t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int,
      maxNodes: Int = 1 << 20, minimize: Boolean = true
  ): Map[Int, Nfa] = {
    require(2L * (t.length + 1) * fst.numStates <= Int.MaxValue,
      s"D-CAND: a sequence of ${t.length} items on an FST of ${fst.numStates} states has more " +
        s"product states than an Int indexes (${Int.MaxValue})")
    val nfas = Map.newBuilder[Int, Nfa]
    var tries: PivotTries = null
    PivotSearch.search(t, fst, dict, maxFid) { (rows, lanes, l, k) =>
      if (tries == null) tries = new PivotTries(rows, fst, maxNodes, minimize)
      nfas += k -> tries.build(k, lanes, l)
    }
    nfas.result()
  }

  /** The pivot tries of one sequence `t` with step rows `rows`, walked node
    * by node.
    *
    * A product state `(i, q, seen)`, state `q` after `t(0 until i)`, is packed
    * into `(i * S + q) << 1 | seen`. It is live for pivot `k` iff one of its
    * accepting suffixes completes a run `r` with `k ∈ K(r)`, given a prefix
    * with every set floor `<= k` that has output `k` iff `seen`.
    *
    * A trie node is the list of live product states reached by the run
    * prefixes that spell its label prefix and end in a labelled step, in
    * first-seen order. Expanding it follows ε-only steps depth first, in
    * transition order, from each of its states in turn, and collects every
    * labelled step into a live state. Children are ordered by the first step
    * with their label, which is the order in which run enumeration first
    * inserts them; a node is final iff ε-only steps lead from one of its
    * seen states to position `n`. Pivot `k`'s lane of the sequence's
    * backward pass ([[repro.fst.FstSimulator.lanes]]) marks both facts per
    * product state, so the walk enters only states that lead to a labelled
    * step: seen, `live`, `toLabel` and `end`; unseen, `toK` for the first two.
    */
  private final class PivotTries(rows: Array[StepRow], fst: Fst, maxNodes: Int, minimize: Boolean) {
    private val n = rows.length
    private val s = fst.numStates
    private val rowOffset = new Array[Int](n + 1) // first step index of position i
    for (i <- 0 until n) rowOffset(i + 1) = rowOffset(i) + rows(i).to.length
    private val labels = new SliceInterner
    private var nodes = 0 // expanded over all pivots, for the cap

    private var k = 0
    private var lanes: Lanes = _ // of the current pivot's chunk, its lane `lane`
    private var lane = 0
    // Label ids of the slices `out(0 until u)` per step index `g` and slice
    // end `u`, at `sliceOffset(g) + u`, plus 1; 0 until interned.
    private val sliceOffset = {
      val a = new Array[Int](rowOffset(n) + 1)
      for (i <- 0 until n; j <- rows(i).to.indices) {
        val g = rowOffset(i) + j
        a(g + 1) = a(g) + rows(i).out(j).length + 1
      }
      a
    }
    private val sliceLabel = new Array[Int](sliceOffset(rowOffset(n)))

    private def bit(mask: Array[Long], cell: Int): Boolean = (mask(cell) >>> lane & 1) != 0
    private def isLive(p: Int): Boolean = bit(if ((p & 1) != 0) lanes.live else lanes.toK, p >>> 1)
    private def leadsToLabel(p: Int): Boolean = bit(if ((p & 1) != 0) lanes.toLabel else lanes.toK, p >>> 1)
    private def leadsToEnd(p: Int): Boolean = (p & 1) != 0 && lanes.end(p >>> 1)

    /** `labelId << 1 | (label holds k)` of labelled step `j` at position
      * `i`, whose set `o` has a floor `<= k` and whose target is live: the
      * slice of `o` up to `k`.
      */
    private def label(i: Int, j: Int, o: Array[Int]): Int = {
      var until = 1
      while (until < o.length && o(until) <= k) until += 1
      val slot = sliceOffset(rowOffset(i) + j) + until
      if (sliceLabel(slot) == 0) sliceLabel(slot) = labels.intern(o, 0, until) + 1
      (sliceLabel(slot) - 1) << 1 | (if (o(until - 1) == k) 1 else 0)
    }

    // Labelled steps into live states, in walk order, linked per child:
    // `pairState(y)` is the step's target, `pairNext(y)` the child's next
    // pair or -1. A node's state list is its list of pairs; a state may
    // repeat in it, which changes nothing, as the walk enters a state once.
    private var pairState = new Array[Int](16)
    private var pairNext = new Array[Int](16)
    private var pairs = 0
    // Children of the nodes on the DFS path, contiguous per node: first and
    // last pair, and in `childPairs` label, then class once visited.
    private var childHead = new Array[Int](16)
    private var childTail = new Array[Int](16)
    private var childPairs = new Array[Int](32)
    private var children = 0
    // Per label id: the expansion that last met it, and its child there.
    private var labelEpoch = new Array[Int](16)
    private var labelChild = new Array[Int](16)
    // Per product state: the expansion whose walk last entered it.
    private val visited = new Array[Int]((n + 1) * s * 2)
    private var epoch = 0

    private val classes = new RevuzClasses(merge = minimize)

    /** The NFA of pivot `pivot`, lane `l` of `chunk`. */
    def build(pivot: Int, chunk: Lanes, l: Int): Nfa = {
      k = pivot
      lanes = chunk
      lane = l
      pairState(0) = fst.initial << 1
      pairNext(0) = -1
      pairs = 1
      visit(0)
      classes.result(labels.table)
    }

    /** Expands the node whose state list starts at pair `head`, visits its
      * children, and returns its class.
      */
    private def visit(head: Int): Int = {
      nodes += 1
      if (nodes > maxNodes) throw new BlowUpException(s"more than $maxNodes trie nodes in one sequence")
      val pairsBefore = pairs
      val first = children
      epoch += 1
      var nodeFinal = false
      var y = head
      while (y >= 0) {
        val p = pairState(y)
        if (leadsToEnd(p)) nodeFinal = true
        if (leadsToLabel(p) && visited(p) != epoch) { visited(p) = epoch; walk(p) }
        y = pairNext(y)
      }
      val end = children
      var c = first
      while (c < end) {
        val cls = visit(childHead(c)) // may grow the child arrays
        childPairs(2 * c + 1) = cls
        c += 1
      }
      val cls = classes.classOf(nodeFinal, childPairs, 2 * first, end - first)
      children = first
      pairs = pairsBefore
      cls
    }

    /** The ε-only walk from product state `p`, depth first in transition
      * order, into states that lead to a labelled step; adds every labelled
      * step into a live state to the child of its label.
      */
    private def walk(p: Int): Unit = {
      val i = (p >>> 1) / s
      val q = (p >>> 1) - i * s
      val row = rows(i)
      var j = row.start(q)
      while (j < row.start(q + 1)) {
        val o = row.out(j)
        if (o(0) <= k) {
          val target = ((i + 1) * s + row.to(j)) << 1
          if (row.epsOnly(j)) {
            val tp = target | p & 1
            if (leadsToLabel(tp) && visited(tp) != epoch) { visited(tp) = epoch; walk(tp) }
          } else if (bit(lanes.live, target >>> 1)) {
            val l = label(i, j, o)
            val tp = target | (p | l) & 1
            if (isLive(tp)) addPair(l >>> 1, tp)
          }
        }
        j += 1
      }
    }

    private def addPair(labelId: Int, p: Int): Unit = {
      labelEpoch = grown(labelEpoch, labelId)
      labelChild = grown(labelChild, labelId)
      pairState = grown(pairState, pairs)
      pairNext = grown(pairNext, pairs)
      pairState(pairs) = p
      pairNext(pairs) = -1
      if (labelEpoch(labelId) == epoch) {
        val c = labelChild(labelId)
        pairNext(childTail(c)) = pairs
        childTail(c) = pairs
      } else {
        labelEpoch(labelId) = epoch
        labelChild(labelId) = children
        childHead = grown(childHead, children)
        childTail = grown(childTail, children)
        childPairs = grown(childPairs, 2 * children + 1)
        childPairs(2 * children) = labelId
        childHead(children) = pairs
        childTail(children) = pairs
        children += 1
      }
      pairs += 1
    }

    /** `a`, or a copy twice as long when `index` is past its end. */
    private def grown(a: Array[Int], index: Int): Array[Int] =
      if (index < a.length) a else java.util.Arrays.copyOf(a, 2 * index)
  }
}
