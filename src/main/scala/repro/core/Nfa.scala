package repro.core

import repro.dict.Dictionary
import repro.fst.{Fst, FstSimulator}

import scala.collection.mutable

/** NFA over output sets, used by D-CAND to represent `ρk(T)` — the candidate
  * subsequences of input sequence `T` with pivot item `k` — in compressed form
  * (Sec. VI-A).
  *
  * States are `0 until numStates`, state 0 initial. An edge is labeled with an
  * output set (sorted fid array): following it consumes one output item chosen
  * from the set. The NFA accepts a candidate iff some path from the root to a
  * final state spells it.
  */
final class Nfa(
    val isFinal: Array[Boolean],
    val edges: Array[Array[(Array[Int], Int)]] // per state: (label set, target)
) extends Serializable {
  def numStates: Int = isFinal.length
  def numEdges: Int = edges.iterator.map(_.length).sum
}

object Nfa {

  /** The tries of one input sequence, one per pivot, in one node store. Edge
    * labels are ids of a [[LabelInterner]] shared by all of them. A node's
    * children are keyed by `node << 32 | labelId` in a primitive map and kept
    * in insertion order as a sibling list.
    */
  private[core] final class TrieForest(val labels: LabelInterner) {
    private var n = 0
    private var isFinal = new Array[Boolean](16)
    private var firstChild = new Array[Int](16)
    private var lastChild = new Array[Int](16)
    private var nextSibling = new Array[Int](16)
    private var inLabel = new Array[Int](16) // label id of the edge into the node
    private val childOf = new LongIntMap

    /** A fresh node without parent: the root of a new trie. */
    def newRoot(): Int = newNode(-1)

    /** The child of `node` along label `labelId`, created if absent. */
    def child(node: Int, labelId: Int): Int = {
      val c = childOf.getOrPut(node.toLong << 32 | labelId, n)
      if (c == n) {
        newNode(labelId)
        if (firstChild(node) < 0) firstChild(node) = c else nextSibling(lastChild(node)) = c
        lastChild(node) = c
      }
      c
    }

    def setFinal(node: Int): Unit = isFinal(node) = true

    private def newNode(labelId: Int): Int = {
      if (n == isFinal.length) {
        isFinal = java.util.Arrays.copyOf(isFinal, 2 * n)
        firstChild = java.util.Arrays.copyOf(firstChild, 2 * n)
        lastChild = java.util.Arrays.copyOf(lastChild, 2 * n)
        nextSibling = java.util.Arrays.copyOf(nextSibling, 2 * n)
        inLabel = java.util.Arrays.copyOf(inLabel, 2 * n)
      }
      firstChild(n) = -1
      nextSibling(n) = -1
      inLabel(n) = labelId
      n += 1
      n - 1
    }

    /** Number the trie under `root` (root = 0, BFS order, children in
      * insertion order) and freeze it into an [[Nfa]].
      */
    def toNfa(root: Int): Nfa = {
      var order = new Array[Int](16) // BFS id -> node
      order(0) = root
      var size = 1
      val edges = mutable.ArrayBuffer.empty[Array[(Array[Int], Int)]]
      var i = 0
      while (i < size) {
        var degree = 0
        var c = firstChild(order(i))
        while (c >= 0) { degree += 1; c = nextSibling(c) }
        val out = new Array[(Array[Int], Int)](degree)
        if (size + degree > order.length) order = java.util.Arrays.copyOf(order, 2 * (size + degree))
        c = firstChild(order(i))
        var j = 0
        while (c >= 0) {
          out(j) = (labels(inLabel(c)), size)
          order(size) = c
          size += 1
          j += 1
          c = nextSibling(c)
        }
        edges += out
        i += 1
      }
      new Nfa(Array.tabulate(size)(b => isFinal(order(b))), edges.toArray)
    }
  }

  /** Revuz-style minimization of an acyclic NFA (the trie): merge states with
    * identical (finality, outgoing transition set) bottom-up, children first,
    * so equivalent suffixes collapse. Linear in the trie size up to the sort
    * of each state's edges. The result accepts exactly the same language.
    *
    * A state's signature is its finality plus the sorted, distinct
    * `labelId << 32 | canon(target)` of its edges. The canonical state of a
    * class is its first state in post-order. Surviving states are renumbered
    * root first, then ascending; each keeps its edge order, with repeats
    * dropped.
    */
  def minimize(nfa: Nfa): Nfa = {
    val n = nfa.numStates
    val labels = new LabelInterner
    val labelIds = nfa.edges.map(_.map { case (l, _) => labels.intern(l, 0, l.length) })
    val canon = new Array[Int](n)
    val distinctEdges = new Array[Int](n)
    val bySig = mutable.HashMap.empty[Signature, Int]
    for (q <- postOrder(nfa)) {
      val es = nfa.edges(q)
      val keys = new Array[Long](es.length)
      var j = 0
      while (j < es.length) {
        keys(j) = labelIds(q)(j).toLong << 32 | canon(es(j)._2)
        j += 1
      }
      java.util.Arrays.sort(keys)
      var d = 0
      j = 0
      while (j < keys.length) {
        if (d == 0 || keys(j) != keys(d - 1)) { keys(d) = keys(j); d += 1 }
        j += 1
      }
      distinctEdges(q) = d
      canon(q) = bySig.getOrElseUpdate(
        new Signature(nfa.isFinal(q), if (d == keys.length) keys else java.util.Arrays.copyOf(keys, d)), q)
    }
    // Renumber surviving states; root first.
    val newId = Array.fill(n)(-1)
    var size = 0
    if (n > 0) { newId(canon(0)) = 0; size = 1 }
    for (q <- 0 until n if canon(q) == q && newId(q) < 0) { newId(q) = size; size += 1 }
    val isFinal = new Array[Boolean](size)
    val edges = new Array[Array[(Array[Int], Int)]](size)
    for (q <- 0 until n if canon(q) == q) {
      val es = nfa.edges(q)
      val hasRepeats = distinctEdges(q) < es.length
      val out = new Array[(Array[Int], Int)](distinctEdges(q))
      val kept = new Array[Long](distinctEdges(q))
      var d = 0
      var j = 0
      while (j < es.length) {
        val t = newId(canon(es(j)._2))
        val key = labelIds(q)(j).toLong << 32 | t
        if (!hasRepeats || !kept.iterator.take(d).contains(key)) {
          out(d) = (labels(labelIds(q)(j)), t)
          kept(d) = key
          d += 1
        }
        j += 1
      }
      isFinal(newId(q)) = nfa.isFinal(q)
      edges(newId(q)) = out
    }
    new Nfa(isFinal, edges)
  }

  /** Finality and sorted distinct edge keys of a state, as a hash key. */
  private final class Signature(val isFinal: Boolean, val edges: Array[Long]) {
    override def equals(o: Any): Boolean = o match {
      case s: Signature => isFinal == s.isFinal && java.util.Arrays.equals(edges, s.edges)
      case _            => false
    }
    override val hashCode: Int = java.util.Arrays.hashCode(edges) * 2 + (if (isFinal) 1 else 0)
  }

  /** States in DFS post-order (children before parents, edges in order),
    * from the root first, then from every state not yet reached.
    */
  private def postOrder(nfa: Nfa): Array[Int] = {
    val n = nfa.numStates
    val mark = new Array[Byte](n) // 0 = new, 1 = on the stack, 2 = done
    val nextEdge = new Array[Int](n)
    val stack = new Array[Int](n)
    val out = new Array[Int](n)
    var size = 0
    var start = -1
    while (start < n) {
      val s = if (start < 0) 0 else start
      if (n > 0 && mark(s) == 0) {
        var top = 0
        stack(0) = s
        mark(s) = 1
        while (top >= 0) {
          val q = stack(top)
          val es = nfa.edges(q)
          if (nextEdge(q) < es.length) {
            val t = es(nextEdge(q))._2
            nextEdge(q) += 1
            if (mark(t) == 0) { mark(t) = 1; top += 1; stack(top) = t }
          } else {
            mark(q) = 2
            out(size) = q
            size += 1
            top -= 1
          }
        }
      }
      start += 1
    }
    out
  }

  /** Build the per-pivot NFAs for input sequence `t` (Sec. VI-A): simulate the
    * FST, insert each accepting run into the tries of its pivots `K(r)` with
    * items `> k` and infrequent items dropped, then minimize each trie.
    *
    * The restricted label of an output set is a slice of the sorted set (ε
    * and items above `min(k, maxFid)` cut off); it is interned once per
    * sequence, so trie children and minimization work on int label ids.
    *
    * @return map pivot -> minimized NFA; empty if `t` has no accepting run.
    */
  def buildForSequence(
      t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int,
      maxRuns: Int = 1 << 20, minimize: Boolean = true
  ): Map[Int, Nfa] = {
    val forest = new TrieForest(new LabelInterner)
    val rootOf = new LongIntMap // pivot -> trie root
    val pivots = new mutable.ArrayBuilder.ofInt
    FstSimulator.foreachAcceptingRun(t, fst, dict, maxRuns) { run =>
      for (k <- PivotSearch.pivotsOfRun(run, maxFid)) {
        var node = rootOf.get(k)
        if (node < 0) { node = rootOf.getOrPut(k, forest.newRoot()); pivots += k }
        // Non-ε output sets restricted to frequent items <= k; no set can end
        // up empty (k ∈ K(r) implies every set has a frequent item <= k).
        val cap = math.min(k, maxFid)
        var i = 0
        while (i < run.length) {
          val os = run(i)
          if (!(os.length == 1 && os(0) == 0)) {
            val from = if (os.nonEmpty && os(0) == 0) 1 else 0
            var until = from
            while (until < os.length && os(until) <= cap) until += 1
            node = forest.child(node, forest.labels.intern(os, from, until))
          }
          i += 1
        }
        forest.setFinal(node)
      }
    }
    pivots.result().iterator.map { k =>
      val nfa = forest.toNfa(rootOf.get(k))
      k -> (if (minimize) Nfa.minimize(nfa) else nfa)
    }.toMap
  }
}
