package repro.dict

import scala.collection.mutable

/** Item dictionary with hierarchy and frequency-based total order.
  *
  * Items are encoded as integer ''fids'' (frequency ids) `1..size`, assigned in
  * order of decreasing item frequency `f(w, D)` (ties broken by item name so the
  * encoding is deterministic). Under the paper's total order `<` (w1 < w2 iff
  * f(w1) > f(w2)), a smaller fid is a "smaller" item, so the pivot item of a
  * sequence — its least frequent item — is simply the ''maximum fid''.
  *
  * Fid `0` is reserved for the empty output ε and never names an item; it is
  * strictly smaller than every item under the total order, which is exactly the
  * convention the pivot-merge operator `⊕` needs (Sec. V-A of the paper).
  *
  * The hierarchy is a DAG: `parentsOf(f)` are the direct generalizations of
  * item `f`; `anc(f)` is the reflexive-transitive closure (sorted ascending,
  * includes `f`). `t ∈ desc(w)` is tested as `w ∈ anc(t)`.
  */
final class Dictionary(
    val names: Array[String],            // index i -> name of fid i+1
    val parentsOf: Array[Array[Int]],    // index i -> parent fids of fid i+1
    val freqs: Array[Long]               // index i -> f(w, D) of fid i+1
) extends Serializable {

  require(names.length == parentsOf.length && names.length == freqs.length)

  /** Number of items (max fid). */
  val size: Int = names.length

  @transient private lazy val byName: Map[String, Int] =
    names.iterator.zipWithIndex.map { case (n, i) => n -> (i + 1) }.toMap

  /** Fid of item `name`; throws if unknown (constraints must reference known items). */
  def fid(name: String): Int =
    byName.getOrElse(name, throw new NoSuchElementException(s"unknown item '$name'"))

  def contains(name: String): Boolean = byName.contains(name)

  def name(fid: Int): String = if (fid == 0) "ε" else names(fid - 1)

  def freq(fid: Int): Long = freqs(fid - 1)

  /** Ancestors of `fid` including itself, sorted ascending. Memoized per instance. */
  // Plain array cache: computed on first access per fid; cheap and idempotent,
  // so benign under concurrent tasks within one JVM.
  @transient private lazy val ancCache: Array[Array[Int]] = new Array[Array[Int]](size + 1)

  def anc(fid: Int): Array[Int] = {
    val cached = ancCache(fid)
    if (cached != null) return cached
    val seen = mutable.BitSet(fid)
    val stack = mutable.Stack(fid)
    while (stack.nonEmpty) {
      val f = stack.pop()
      for (p <- parentsOf(f - 1)) if (!seen.contains(p)) { seen += p; stack.push(p) }
    }
    val res = seen.toArray // BitSet iterates ascending
    ancCache(fid) = res
    res
  }

  /** Is `t` a descendant of `w` (reflexive)? */
  def isDesc(t: Int, w: Int): Boolean = java.util.Arrays.binarySearch(anc(t), w) >= 0

  /** Ancestors of `t` that are descendants of `w` — the output of a captured `w↑`. */
  def ancUpTo(t: Int, w: Int): Array[Int] = anc(t).filter(a => isDesc(a, w))

  /** Largest fid whose frequency is >= sigma; frequent items are exactly fids
    * `1..maxFrequentFid(sigma)` because fids are sorted by decreasing frequency.
    */
  def maxFrequentFid(sigma: Long): Int = {
    // freqs is non-increasing; binary search for the boundary.
    var lo = 0; var hi = size // invariant: fids <= lo frequent, fids > hi infrequent
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (freqs(mid - 1) >= sigma) lo = mid else hi = mid - 1
    }
    lo
  }
}

object Dictionary {

  /** Build a dictionary from raw (name -> parents) hierarchy plus item
    * frequencies. Fids are assigned by decreasing frequency, name-tiebreak.
    * Items present in the hierarchy but with no occurrences get frequency 0
    * and the largest fids.
    */
  def build(parents: Map[String, Seq[String]], itemFreqs: Map[String, Long]): Dictionary = {
    // Universe = all names mentioned anywhere (as child or parent).
    val universe = mutable.SortedSet.empty[String]
    universe ++= parents.keys
    parents.values.foreach(universe ++= _)
    universe ++= itemFreqs.keys
    val ordered = universe.toArray.sortBy(n => (-itemFreqs.getOrElse(n, 0L), n))
    val idx = ordered.iterator.zipWithIndex.map { case (n, i) => n -> (i + 1) }.toMap
    val par = ordered.map(n => parents.getOrElse(n, Nil).map(idx).toArray.sorted)
    val fr = ordered.map(n => itemFreqs.getOrElse(n, 0L))
    val d = new Dictionary(ordered, par, fr)
    assertAcyclic(d)
    d
  }

  /** Sanity check: hierarchy must be a DAG (anc computation would loop forever
    * only logically — our BFS with a seen-set terminates — but a cycle makes
    * generalization meaningless, so fail fast at build time).
    */
  private def assertAcyclic(d: Dictionary): Unit = {
    val state = new Array[Byte](d.size + 1) // 0 unvisited, 1 in-stack, 2 done
    def visit(f: Int): Unit = {
      if (state(f) == 1) throw new IllegalArgumentException(s"hierarchy cycle at ${d.name(f)}")
      if (state(f) == 2) return
      state(f) = 1
      d.parentsOf(f - 1).foreach(visit)
      state(f) = 2
    }
    (1 to d.size).foreach(visit)
  }
}
