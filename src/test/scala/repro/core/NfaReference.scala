package repro.core

import repro.dict.Dictionary
import repro.fst.{Fst, FstSimulator}

import scala.collection.mutable

/** D-CAND's per-pivot NFAs built run by run, as Sec. VI-A describes them:
  * every accepting run is inserted into the trie of each of its pivots, and
  * each trie is minimized afterwards. [[Nfa.buildForSequence]] must produce
  * the same NFAs, byte for byte once serialized.
  */
object NfaReference {

  /** The per-pivot NFAs of `t`: enumerate the accepting runs, insert each into
    * the tries of its pivots `K(r)` with items `> k` and infrequent items
    * dropped, then minimize each trie when `minimize` is set. Pivots appear
    * in the order of their first run.
    */
  def buildForSequence(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int,
                       minimize: Boolean = true): Map[Int, Nfa] = {
    val forest = new TrieForest(new SliceInterner)
    val rootOf = new LongIntMap // pivot -> trie root
    val pivots = new mutable.ArrayBuilder.ofInt
    FstSimulator.foreachAcceptingRun(t, fst, dict) { run =>
      for (k <- PivotFold.pivotsOfRun(run, maxFid)) {
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

/** The tries of one input sequence, one per pivot, in one node store. Edge
  * labels are ids of a [[SliceInterner]] shared by all of them. A node's
  * children are keyed by `node << 32 | labelId` in a primitive map and kept
  * in insertion order as a sibling list.
  */
final class TrieForest(val labels: SliceInterner) {
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
    val edges = mutable.ArrayBuffer.empty[Array[Int]]
    var i = 0
    while (i < size) {
      var degree = 0
      var c = firstChild(order(i))
      while (c >= 0) { degree += 1; c = nextSibling(c) }
      val out = new Array[Int](2 * degree)
      if (size + degree > order.length) order = java.util.Arrays.copyOf(order, 2 * (size + degree))
      c = firstChild(order(i))
      var j = 0
      while (c >= 0) {
        out(2 * j) = inLabel(c)
        out(2 * j + 1) = size
        order(size) = c
        size += 1
        j += 1
        c = nextSibling(c)
      }
      edges += out
      i += 1
    }
    new Nfa(Array.tabulate(size)(b => isFinal(order(b))), edges.toArray, labels.table)
  }
}

/** Open-addressing map from `Long` keys to non-negative `Int` values, with
  * no boxing. Used for trie children keyed by `node << 32 | labelId`.
  */
final class LongIntMap {
  private var keys = new Array[Long](16)
  private var vals = Array.fill(16)(-1)
  private var n = 0

  private def slot(k: Long, mask: Int): Int = {
    val h = k * 0x9E3779B97F4A7C15L
    (h ^ (h >>> 32)).toInt & mask
  }

  /** The value of `k`, or -1 if absent. */
  def get(k: Long): Int = {
    val mask = keys.length - 1
    var s = slot(k, mask)
    while (vals(s) >= 0) {
      if (keys(s) == k) return vals(s)
      s = (s + 1) & mask
    }
    -1
  }

  /** The value of `k`; if absent, binds `k` to `v` first and returns `v`. */
  def getOrPut(k: Long, v: Int): Int = {
    require(v >= 0, "LongIntMap values must be non-negative")
    val mask = keys.length - 1
    var s = slot(k, mask)
    while (vals(s) >= 0) {
      if (keys(s) == k) return vals(s)
      s = (s + 1) & mask
    }
    keys(s) = k
    vals(s) = v
    n += 1
    if (2 * n > keys.length) grow()
    v
  }

  private def grow(): Unit = {
    val (oldKeys, oldVals) = (keys, vals)
    keys = new Array[Long](oldKeys.length * 2)
    vals = Array.fill(oldKeys.length * 2)(-1)
    val mask = keys.length - 1
    var i = 0
    while (i < oldKeys.length) {
      if (oldVals(i) >= 0) {
        var s = slot(oldKeys(i), mask)
        while (vals(s) >= 0) s = (s + 1) & mask
        keys(s) = oldKeys(i)
        vals(s) = oldVals(i)
      }
      i += 1
    }
  }
}
