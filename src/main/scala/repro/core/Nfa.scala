package repro.core

import repro.dict.Dictionary
import repro.fst.{BlowUpException, Fst, FstSimulator}
import repro.fst.FstSimulator.{End, LeadsToLabel, Live}

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
  def numEdges: Int = edges.iterator.map(_.length).sum / 2
}

object Nfa {

  /** Revuz-style minimization of an acyclic NFA (the trie): merge states with
    * identical (finality, outgoing transition set) bottom-up, children first,
    * so equivalent suffixes collapse. Linear in the NFA's size up to the sort
    * of each state's edges. The result accepts exactly the same language;
    * states unreachable from the root are dropped.
    *
    * One DFS from the root, children in edge order, classifies each state as
    * it returns from it: its signature is its finality plus the sorted,
    * distinct `labelId << 32 | class` of its edges, hash-consed in the same
    * [[SignatureTable]] that [[buildForSequence]] fills while it builds. Class
    * `c` is state `c + 1` and the root's class (the last) is state 0; a class
    * keeps the edge order of its first state, with repeats dropped.
    */
  def minimize(nfa: Nfa): Nfa = {
    val table = new SignatureTable
    val classOf = Array.fill(nfa.numStates)(-1)
    val keys = new Array[Long](nfa.edges.iterator.map(_.length).max / 2)
    val isFinal = new Array[Boolean](nfa.numStates)
    val edges = new Array[Array[Int]](nfa.numStates)

    def visit(q: Int): Int = {
      val es = nfa.edges(q)
      var j = 1
      while (j < es.length) { if (classOf(es(j)) < 0) classOf(es(j)) = visit(es(j)); j += 2 }
      val degree = es.length / 2
      j = 0
      while (j < degree) { keys(j) = es(2 * j).toLong << 32 | classOf(es(2 * j + 1)); j += 1 }
      java.util.Arrays.sort(keys, 0, degree)
      var d = 0
      j = 0
      while (j < degree) { if (d == 0 || keys(j) != keys(d - 1)) { keys(d) = keys(j); d += 1 }; j += 1 }
      val size = table.size
      val c = table.classOf(nfa.isFinal(q), keys, d)
      if (c == size) { // a new class: q represents it
        val out = new Array[Int](2 * d)
        var o = 0
        j = 0
        while (j < es.length) {
          val t = classOf(es(j + 1)) + 1
          var x = if (d < degree) 0 else o // look for a repeat only if there is one
          while (x < o && (out(x) != es(j) || out(x + 1) != t)) x += 2
          if (x == o) { out(o) = es(j); out(o + 1) = t; o += 2 }
          j += 2
        }
        isFinal(if (q == 0) 0 else c + 1) = nfa.isFinal(q)
        edges(if (q == 0) 0 else c + 1) = out
      }
      c
    }

    visit(0)
    new Nfa(java.util.Arrays.copyOf(isFinal, table.size), java.util.Arrays.copyOf(edges, table.size), nfa.labels)
  }

  /** Build the per-pivot NFAs for input sequence `t` (Sec. VI-A): for each
    * pivot `k` of the grid ([[PivotSearch.grid]]), the trie of the restricted
    * label strings of the accepting runs `r` with `k ∈ K(r)`, minimized.
    *
    * A run's label string is its non-ε output sets, each restricted to its
    * items `<= k` (a slice of the sorted set, interned once per sequence).
    * The trie is not built run by run: [[PivotTries]] walks it by one DFS
    * over trie nodes, each the set of product states the runs spelling its
    * label prefix can be in, and hash-conses every node's signature as the
    * DFS returns from it (Revuz on the fly), so the minimized NFA comes out
    * directly. With `minimize = false` every node is its own class, which
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
    val pivots = PivotSearch.grid(t, fst, dict, maxFid).pivots
    if (pivots.isEmpty) return Map.empty
    val tries = new PivotTries(t, fst, dict, maxNodes, minimize)
    pivots.iterator.map { k =>
      tries.pivot(k)
      k -> tries.build()
    }.toMap
  }

  /** The pivot tries of one sequence `t`, walked node by node.
    *
    * A product state `(i, q, seen)` of [[FstSimulator.pivotCells]] is packed
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
    * seen states to position `n`. The pivot's cells mark both facts per
    * product state, so the walk enters only states that lead to a labelled
    * step.
    */
  private final class PivotTries(t: Array[Int], fst: Fst, dict: Dictionary,
                                 maxNodes: Int, minimize: Boolean) {
    private val n = t.length
    private val s = fst.numStates
    private val rows = Array.tabulate(n)(i => fst.steps(t(i), dict))
    private val rowOffset = rows.scanLeft(0)(_ + _.to.length) // first step index of position i
    private val labels = new LabelInterner
    private var nodes = 0 // expanded over all pivots, for the cap

    private var k = 0
    private var cells: Array[Byte] = _ // the current pivot's
    // Label ids of the slices `out(0 until u)` per step index `g` and slice
    // end `u`, at `sliceOffset(g) + u`; -1 until interned.
    private val sliceOffset = {
      val a = new Array[Int](rowOffset(n) + 1)
      for (i <- 0 until n; j <- rows(i).to.indices) {
        val g = rowOffset(i) + j
        a(g + 1) = a(g) + rows(i).out(j).length + 1
      }
      a
    }
    private val sliceLabel = Array.fill(sliceOffset(rowOffset(n)))(-1)

    /** Switches to pivot `k`. */
    def pivot(pivot: Int): Unit = {
      k = pivot
      cells = FstSimulator.pivotCells(t, fst, dict, k)
    }

    private def isLive(p: Int): Boolean = (cells(p >>> 1) & Live << (p & 1)) != 0
    private def leadsToLabel(p: Int): Boolean =
      (cells(p >>> 1) & (if ((p & 1) != 0) LeadsToLabel else Live)) != 0 // unseen, the bits are equal
    private def leadsToEnd(p: Int): Boolean = (p & 1) != 0 && (cells(p >>> 1) & End) != 0

    /** `labelId << 1 | (label holds k)` of labelled step `j` at position
      * `i`, whose set `o` has a floor `<= k` and whose target is live: the
      * slice of `o` up to `k`.
      */
    private def label(i: Int, j: Int, o: Array[Int]): Int = {
      var until = 1
      while (until < o.length && o(until) <= k) until += 1
      val slot = sliceOffset(rowOffset(i) + j) + until
      if (sliceLabel(slot) < 0) sliceLabel(slot) = labels.intern(o, 0, until)
      sliceLabel(slot) << 1 | (if (o(until - 1) == k) 1 else 0)
    }

    // Labelled steps into live states, in walk order, linked per child:
    // `pairState(y)` is the step's target, `pairNext(y)` the child's next
    // pair or -1. A node's state list is its list of pairs; a state may
    // repeat in it, which changes nothing, as the walk enters a state once.
    private var pairState = new Array[Int](16)
    private var pairNext = new Array[Int](16)
    private var pairs = 0
    // Children of the nodes on the DFS path, contiguous per node: label,
    // first and last pair, and class once visited.
    private var childLabel = new Array[Int](16)
    private var childHead = new Array[Int](16)
    private var childTail = new Array[Int](16)
    private var childClass = new Array[Int](16)
    private var children = 0
    // Per label id: the expansion that last met it, and its child there.
    private var labelEpoch = new Array[Int](16)
    private var labelChild = new Array[Int](16)
    // Per product state: the expansion whose walk last entered it.
    private val visited = new Array[Int]((n + 1) * s * 2)
    private var epoch = 0

    private val table = new SignatureTable
    private var keys = new Array[Long](16)
    // The NFA being emitted: one state per class.
    private var classes = 0
    private var isFinal = new Array[Boolean](16)
    private var edges = new Array[Array[Int]](16)

    /** The current pivot's NFA: state 0 is the root; any other class `c`,
      * numbered in post-order, is state `c + 1` (the root's class is last).
      */
    def build(): Nfa = {
      table.clear()
      classes = 0
      pairState(0) = fst.initial << 1
      pairNext(0) = -1
      pairs = 1
      visit(0, isRoot = true)
      new Nfa(java.util.Arrays.copyOf(isFinal, classes), java.util.Arrays.copyOf(edges, classes), labels.table)
    }

    /** Expands the node whose state list starts at pair `head`, visits its
      * children, and returns its class.
      */
    private def visit(head: Int, isRoot: Boolean): Int = {
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
        val cls = visit(childHead(c), isRoot = false) // may grow the child arrays
        childClass(c) = cls
        c += 1
      }

      // Revuz on the fly: the children's classes are final now.
      val degree = end - first
      if (degree > keys.length) keys = new Array[Long](2 * degree)
      var x = 0
      while (x < degree) {
        keys(x) = childLabel(first + x).toLong << 32 | childClass(first + x)
        x += 1
      }
      var cls = classes
      if (minimize) {
        java.util.Arrays.sort(keys, 0, degree)
        cls = table.classOf(nodeFinal, keys, degree)
      }
      if (cls == classes) { // a new class: this node represents it
        classes += 1
        if (classes == isFinal.length) {
          isFinal = java.util.Arrays.copyOf(isFinal, 2 * classes)
          edges = java.util.Arrays.copyOf(edges, 2 * classes)
        }
        val out = new Array[Int](2 * degree)
        x = 0
        while (x < degree) {
          out(2 * x) = childLabel(first + x)
          out(2 * x + 1) = childClass(first + x) + 1
          x += 1
        }
        val id = if (isRoot) 0 else cls + 1
        isFinal(id) = nodeFinal
        edges(id) = out
      }
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
          } else if ((cells(target >>> 1) & Live << 1) != 0) {
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
        childLabel = grown(childLabel, children)
        childHead = grown(childHead, children)
        childTail = grown(childTail, children)
        childClass = grown(childClass, children)
        childLabel(children) = labelId
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
