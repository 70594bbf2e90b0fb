package repro.fst

import repro.dict.Dictionary

import scala.collection.mutable

/** FST simulation: the backward floor DP, accepting-run enumeration and
  * candidate generation `Gπ(T)` (Sec. IV of the paper).
  *
  * All methods work on fid-encoded sequences. Output sets are sorted
  * `Array[Int]` with fid 0 = ε.
  */
object FstSimulator {

  /** One accepting run, represented by its sequence of output sets — one
    * entry per input position (ε-only sets included). The sets are the FST
    * step table's own arrays: read them, never write them.
    */
  type Run = IndexedSeq[Array[Int]]

  /** `floor(i * S + q)`, `S = fst.numStates`: the smallest possible largest
    * set floor over the accepting runs that consume `t(i+1..n)` from state
    * `q`. A set's floor is its smallest item `<= cap`, ε = 0 included; a run
    * through a set with no such item does not count. `Int.MaxValue` when no
    * run counts, so with `cap = Int.MaxValue` a finite entry means the cell
    * reaches a final state. Backward DP, O(|T|·|Δ|). Index `i` ranges 0..n.
    */
  def floors(t: Array[Int], fst: Fst, dict: Dictionary, cap: Int): Array[Int] = {
    val n = t.length
    val s = fst.numStates
    val floor = new Array[Int]((n + 1) * s)
    for (q <- 0 until s) floor(n * s + q) = if (fst.isFinal(q)) 0 else Int.MaxValue
    var i = n - 1
    while (i >= 0) {
      val row = fst.steps(t(i), dict)
      val next = (i + 1) * s
      var q = 0
      while (q < s) {
        var best = Int.MaxValue
        var j = row.start(q)
        while (j < row.start(q + 1)) {
          val o0 = row.out(j)(0)
          if (o0 <= cap) best = math.min(best, math.max(o0, floor(next + row.to(j))))
          j += 1
        }
        floor(i * s + q) = best
        q += 1
      }
      i -= 1
    }
    floor
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
    val floor = floors(t, fst, dict, Int.MaxValue)
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
        if (floor(next + row.to(j)) < Int.MaxValue) {
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
