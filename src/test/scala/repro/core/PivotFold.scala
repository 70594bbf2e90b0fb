package repro.core

/** Th. 1's pivot-merge `⊕` and its fold over a run, written as defined: the
  * reference that [[PivotSearch.pivotsOfRun]] and [[PivotSearch.grid]]
  * compute in closed form.
  */
object PivotFold {

  /** `U ⊕ Q = {ω∈U | ω ≥ min Q} ∪ {ω∈Q | ω ≥ min U}` on non-empty sets,
    * as a sorted, distinct array.
    */
  def oplus(u: Array[Int], q: Array[Int]): Array[Int] =
    (u.filter(_ >= q.min) ++ q.filter(_ >= u.min)).distinct.sorted

  /** `K(r)`: `⊕` folded over the run's σ-filtered output sets (ε = 0 is an
    * item here), ε removed. Empty when some set has no item `<= maxFid`;
    * `maxFid < 0` filters nothing.
    */
  def fold(run: Seq[Array[Int]], maxFid: Int): Array[Int] = {
    var acc = Array(0)
    for (os <- run) {
      val o = if (maxFid < 0) os else os.filter(_ <= maxFid)
      if (o.isEmpty) return Array.empty
      acc = oplus(acc, o)
    }
    acc.filter(_ != 0)
  }
}
