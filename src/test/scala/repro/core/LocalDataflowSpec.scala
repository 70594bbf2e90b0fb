package repro.core

import repro.{SparkSpec, TestGen}

/** The D-SEQ and D-CAND drivers on local-mode Spark against brute force and
  * each other, over more seeds and thresholds than `DriversSpec`.
  */
class LocalDataflowSpec extends SparkSpec {

  for ((name, patex) <- TestGen.patterns; seed <- Seq(51, 52)) {
    test(s"D-SEQ local == brute force [$name, seed=$seed]") {
      val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(seed), TestGen.toyParents)
      for (sigma <- Seq(1L, 2L, 4L)) {
        val want = BruteForce.mine(dbr, patex, sigma, d)
        assert(dSeq(dbr, d, patex, sigma) == want, s"sigma=$sigma")
      }
    }
  }

  for ((name, patex) <- TestGen.patterns; seed <- Seq(54)) {
    test(s"D-SEQ == D-CAND [$name, seed=$seed]") {
      val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = 40), TestGen.toyParents)
      val sigma = 3L
      assert(dSeq(dbr, d, patex, sigma) == dCand(dbr, d, patex, sigma))
    }
  }

  test("longer random sequences: D-SEQ == D-CAND == brute force on πex-style") {
    val (d, dbr) = TestGen.encodeLocal(
      TestGen.randomDb(99, nSeqs = 20, maxLen = 14), TestGen.toyParents)
    for ((_, patex) <- TestGen.patterns.take(8)) {
      val want = BruteForce.mine(dbr, patex, 2, d)
      assert(dSeq(dbr, d, patex, 2) == want)
      assert(dCand(dbr, d, patex, 2) == want)
    }
  }
}
