package repro.core

import org.apache.logging.log4j.{Level, LogManager}
import org.apache.logging.log4j.core.config.Configurator
import org.apache.spark.SparkException
import repro.SparkSpec
import repro.Ex._
import repro.fst.{BlowUpException, FstCompiler}

/** Run and candidate caps surface as [[BlowUpException]], and only that type
  * is reported as "capped".
  */
class BlowUpSpec extends SparkSpec {

  private lazy val fst = FstCompiler.compile(piEx, dict)

  test("a D-CAND map over the run cap throws BlowUpException") {
    intercept[BlowUpException](Nfa.buildForSequence(T1, fst, dict, dict.maxFrequentFid(1), maxNodes = 1))
  }

  test("D-CAND on Spark over the run cap fails with a BlowUpException cause") {
    // The failing tasks' stack traces are expected here; keep them out of the output.
    val loggers = Seq("org.apache.spark.executor.Executor", "org.apache.spark.scheduler.TaskSetManager")
    val levels = loggers.map(LogManager.getLogger(_).getLevel)
    loggers.foreach(Configurator.setLevel(_, Level.OFF))
    val e =
      try intercept[SparkException] {
        Drivers.dCand(sc, sc.parallelize(db, 2), dict, piEx, 1, maxNodes = 1).collect()
      }
      finally loggers.zip(levels).foreach { case (l, level) => Configurator.setLevel(l, level) }
    assert(BlowUpException.inCauseChain(e), e.toString)
  }

  test("candidate caps count as capped in BruteForce.candidateCount") {
    val maxFid = dict.maxFrequentFid(1)
    val counts = db.map(BruteForce.candidateCount(_, fst, dict, maxFid, cap = 2))
    val full = db.map(BruteForce.candidateCount(_, fst, dict, maxFid, cap = 1 << 20))
    assert(counts == full.map(c => math.min(c, 2L)))
    assert(full.exists(_ > 2))
  }

  test("an unrelated IllegalStateException is not reported as a blow-up") {
    assert(!BlowUpException.inCauseChain(new IllegalStateException("unrelated")))
    assert(!BlowUpException.inCauseChain(new SparkException("job failed", new IllegalStateException("x"))))
    assert(BlowUpException.inCauseChain(new SparkException("job failed", new BlowUpException("capped"))))
  }
}
