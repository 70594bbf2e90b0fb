package repro.core

/** Th. 1's pivot-merge `⊕` and its fold over a run, written as defined, and
  * its closed form for one run ([[pivotsOfRun]]), which [[PivotSearch.grid]]
  * and `FstSimulator.pivotCells` apply to all runs at once.
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

  /** Pivot items of a single run (Th. 1), in closed form. Folding `⊕` over
    * the run's σ-filtered output sets keeps exactly the items `>= L`, where
    * `L` is the largest of the sets' smallest items (ε = 0 counts as an item
    * here). So `K(r)` is every frequent non-ε item `>= L` of the run; it is
    * empty if some set has no frequent item. `maxFid < 0` filters nothing.
    */
  def pivotsOfRun(run: Seq[Array[Int]], maxFid: Int): Array[Int] = {
    val cap = if (maxFid < 0) Int.MaxValue else maxFid
    if (run.exists(os => os.isEmpty || os(0) > cap)) return Array.emptyIntArray
    val lo = run.map(_(0)).maxOption.getOrElse(0) // L
    run.flatMap(_.filter(w => w >= lo && w != 0 && w <= cap)).distinct.sorted.toArray
  }
}
