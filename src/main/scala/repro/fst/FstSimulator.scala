package repro.fst

import repro.dict.Dictionary

import scala.collection.mutable

/** FST simulation: the per-sequence backward DP, accepting-run enumeration
  * and candidate generation `Gπ(T)` (Sec. IV of the paper).
  *
  * [[lanes]] is the one backward DP. It runs for 64 candidate pivots at once
  * (the pivot search, D-SEQ's windows and D-CAND's pivot tries);
  * [[pivotCells]] is its one-lane run for one pivot `k`, packed into a byte
  * per cell (DESQ-DFS and, with `k` past every item, the run enumeration's
  * pruning). All methods work on fid-encoded sequences.
  * Output sets are sorted `Array[Int]` with fid 0 = ε; a set that is not
  * ε-only holds no ε.
  */
object FstSimulator {

  /** One accepting run, represented by its sequence of output sets — one
    * entry per input position (ε-only sets included). The sets are the FST
    * step table's own arrays: read them, never write them.
    */
  type Run = IndexedSeq[Array[Int]]

  /** Requires that the per-sequence DPs' cells `i * s + q` (`i` in 0..n) of
    * a sequence of `n` items on an FST of `s` states stay within `Int` range.
    */
  private[repro] def requireCells(n: Int, s: Int): Unit =
    require((n + 1).toLong * s <= Int.MaxValue,
      s"a sequence of n = $n items on an FST of S = $s states has more position-state cells " +
        s"than an Int indexes (${Int.MaxValue})")

  /** Bits of a [[pivotCells]] entry: `Live << seen`, `LeadsToLabel` (seen
    * only) and `End`.
    */
  final val Live = 1
  final val LeadsToLabel = 4
  final val End = 8

  /** The masks of one [[lanes]] pass. */
  private[repro] final class Lanes(val below: Array[Long], val holds: Array[Long], val live: Array[Long],
                                   val toK: Array[Long], val toLabel: Array[Long], val end: Array[Boolean])

  /** The backward DP over the step rows `rows` of a sequence `t` for the
    * sorted candidates `ks(lo until hi)` (at most 64) at once, candidate
    * `ks(lo + l)` in lane `l` of each mask.
    *
    * An output set's masks, built once per (position, output function):
    * `below`, the lanes whose candidate is `>=` the set's floor, and
    * `holds`, the lanes whose candidate the set holds. Per cell `i * S + q`
    * (see [[requireCells]]), lane `l` of `live`, `toK` and `toLabel` is
    * `pivotCells(t, fst, dict, ks(lo + l))`'s bit `Live << 1`, `Live` and
    * `LeadsToLabel`, and `end` is its `End` bit, which does not depend on
    * `k`. So `k` is a pivot iff its lane of `toK` is set at `(0, initial)`.
    */
  private[repro] def lanes(rows: Array[StepRow], fst: Fst, ks: Array[Int], lo: Int, hi: Int): Lanes = {
    val n = rows.length
    val s = fst.numStates
    val all = if (hi - lo == 64) -1L else (1L << (hi - lo)) - 1
    val fns = if (n == 0) 0 else rows(0).sets.length
    val below = new Array[Long](n * fns)
    val holds = new Array[Long](n * fns)
    val live = new Array[Long]((n + 1) * s)
    val toK = new Array[Long]((n + 1) * s)
    val toLabel = new Array[Long]((n + 1) * s)
    val end = new Array[Boolean]((n + 1) * s)
    var q = 0
    while (q < s) {
      if (fst.isFinal(q)) { live(n * s + q) = all; end(n * s + q) = true }
      q += 1
    }
    var i = n - 1
    while (i >= 0) {
      val row = rows(i)
      val fn = i * fns
      var f = 0
      while (f < fns) {
        val o = row.sets(f)
        // Empty if no step on this item outputs it; then both masks stay 0. Otherwise lanes
        // from `p` on hold the candidates >= o(0), and the set's candidates are among them.
        if (o.length > 0) {
          val at = if (o(0) <= ks(lo)) lo else java.util.Arrays.binarySearch(ks, lo, hi, o(0))
          var p = if (at >= 0) at else -at - 1
          below(fn + f) = if (p == hi) 0L else all & -1L << (p - lo)
          var h = 0L
          var m = 0
          while (m < o.length && p < hi) {
            while (p < hi && ks(p) < o(m)) p += 1
            if (p < hi && ks(p) == o(m)) h |= 1L << (p - lo)
            m += 1
          }
          holds(fn + f) = h
        }
        f += 1
      }
      val next = (i + 1) * s
      q = 0
      while (q < s) {
        var l, k, x = 0L
        var e = false
        var j = row.start(q)
        while (j < row.start(q + 1)) {
          val to = next + row.to(j)
          if (row.epsOnly(j)) { l |= live(to); k |= toK(to); x |= toLabel(to); e |= end(to) }
          else {
            val b = below(fn + row.outFn(j))
            val bl = b & live(to) // a labelled step into a live seen state
            l |= bl
            x |= bl
            k |= b & toK(to) | bl & holds(fn + row.outFn(j))
          }
          j += 1
        }
        live(i * s + q) = l
        toK(i * s + q) = k
        toLabel(i * s + q) = x
        end(i * s + q) = e
        q += 1
      }
      i -= 1
    }
    new Lanes(below, holds, live, toK, toLabel, end)
  }

  /** The pivot-`k` backward pass over `t`, one byte per cell `i * S + q`
    * (`S = fst.numStates`, `i` in 0..n; see [[requireCells]]): the one-lane
    * [[lanes]] run for `k >= 0`, its masks packed into the bits below.
    *
    * A product state `(i, q, seen)` is state `q` after consuming
    * `t(0 until i)`, `seen` telling whether the run so far has output `k`.
    * A run counts for pivot `k` iff every output set's floor (smallest item,
    * ε = 0) is `<= k` and some set holds `k`: the closed form of Th. 1's
    * `⊕` for `k <= maxFid`. So `(i, q, seen)` is live iff it has an
    * accepting suffix with every set floor `<= k` that, unless `seen`,
    * outputs `k`; a live `(i, q, false)` implies a live `(i, q, true)`. Per
    * cell, bit:
    *  - `Live << seen`: `(i, q, seen)` is live.
    *  - `LeadsToLabel`: ε-only steps through live states lead from
    *    `(i, q, true)` to a labelled step (a set that is not ε-only, floor
    *    `<= k`) into a live seen state. For `(i, q, false)` the same fact,
    *    with a target that is seen iff the set holds `k`, is its `Live` bit:
    *    a run that must still output `k` can only do so through such a step.
    *  - `End`: ε-only steps lead from `(i, q)` to a final state at `n`.
    *
    * O(|T|·|Δ|). Only the bytes are kept: DESQ-DFS holds the cells of every
    * sequence it mines, and [[Lanes]] takes 25 bytes per cell.
    */
  def pivotCells(t: Array[Int], fst: Fst, dict: Dictionary, k: Int): Array[Byte] = {
    requireCells(t.length, fst.numStates)
    val rows = new Array[StepRow](t.length)
    for (i <- t.indices) rows(i) = fst.steps(t(i), dict) // a plain loop: `t.map` boxes every fid
    val lane = lanes(rows, fst, Array(k), 0, 1)
    val cells = new Array[Byte](lane.end.length)
    var c = 0
    while (c < cells.length) {
      val bits = lane.toK(c) | lane.live(c) << 1 | lane.toLabel(c) << 2
      cells(c) = (bits.toInt | (if (lane.end(c)) End else 0)).toByte
      c += 1
    }
    cells
  }

  /** Stream all accepting runs of `t` (as sequences of output sets) to `f`
    * without materializing them. Exponential in general — `maxRuns` guards
    * against blow-up with a [[BlowUpException]]. NAIVE and SEMI-NAIVE (via
    * [[candidates]]), `BruteForce` and the tests enumerate runs here; D-CAND
    * does not, its cap is on trie nodes.
    */
  def foreachAcceptingRun(t: Array[Int], fst: Fst, dict: Dictionary,
                          maxRuns: Int = 1 << 20)(f: Run => Unit): Unit = {
    val n = t.length
    // With k past every item, `Live << 1` marks the cells with an accepting suffix.
    val cells = pivotCells(t, fst, dict, Int.MaxValue)
    var count = 0
    val cur = new Array[Array[Int]](n)
    def rec(i: Int, q: Int): Unit = {
      if (i == n) {
        if (fst.isFinal(q)) {
          count += 1
          if (count > maxRuns)
            throw new BlowUpException(s"more than $maxRuns accepting runs")
          f(cur.clone().toIndexedSeq)
        }
        return
      }
      val row = fst.steps(t(i), dict)
      val next = (i + 1) * fst.numStates
      var j = row.start(q)
      while (j < row.start(q + 1)) {
        if ((cells(next + row.to(j)) & Live << 1) != 0) {
          cur(i) = row.out(j)
          rec(i + 1, row.to(j))
        }
        j += 1
      }
    }
    if (n == 0) { if (fst.isFinal(fst.initial)) f(IndexedSeq.empty) }
    else rec(0, fst.initial)
  }

  /** Candidates generated by one run: the Cartesian product of its output
    * sets, ε entries contributing nothing. The empty output sequence is
    * dropped (an empty pattern is not a subsequence).
    */
  def candidatesOfRun(run: Run, maxCands: Int = 1 << 20): Set[List[Int]] = {
    var acc: Set[List[Int]] = Set(Nil)
    for (outSet <- run) {
      val next = mutable.Set.empty[List[Int]]
      for (prefix <- acc; w <- outSet) {
        next += (if (w == 0) prefix else prefix :+ w)
        if (next.size > maxCands)
          throw new BlowUpException(s"more than $maxCands candidates in one run")
      }
      acc = next.toSet
    }
    acc - Nil
  }

  /** `Gπ(T)` — all candidate subsequences of `t` (distinct across runs).
    * `maxFid`, when >= 0, filters output items to fids <= maxFid — i.e.
    * computes `Gσπ(T)` by excluding candidates containing infrequent items.
    */
  def candidates(t: Array[Int], fst: Fst, dict: Dictionary,
                 maxFid: Int = -1, maxCands: Int = 1 << 20): Set[List[Int]] = {
    val res = mutable.Set.empty[List[Int]]
    foreachAcceptingRun(t, fst, dict, maxRuns = math.max(maxCands, 1 << 16)) { run =>
      // With σ-filtering, a run whose output set loses all its items produces
      // no candidate in Gσπ (every pick would contain an infrequent item).
      val filtered =
        if (maxFid < 0) Some(run)
        else {
          val f = run.map(os => os.filter(w => w == 0 || w <= maxFid))
          if (f.exists(_.isEmpty)) None else Some(f)
        }
      filtered.foreach { r =>
        res ++= candidatesOfRun(r, maxCands)
        if (res.size > maxCands)
          throw new BlowUpException(s"more than $maxCands candidates")
      }
    }
    res.toSet
  }
}
