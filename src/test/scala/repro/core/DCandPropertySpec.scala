package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** Property tests (ScalaCheck) for D-CAND's packed-key layers against their
  * definitions: the `⊕` fold, the trie language, and brute-force counting.
  */
class DCandPropertySpec extends AnyFunSuite {

  private def check(p: Prop, tests: Int = 300): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(Seed(20190408L))
    val res = Test.check(params, p)
    assert(res.passed, res.status.toString)
  }

  test("pivotsOfRun equals the ⊕ fold over the σ-filtered output sets") {
    def fold(run: IndexedSeq[Array[Int]], maxFid: Int): Array[Int] = {
      var acc = Array(0)
      for (os <- run) {
        val o = if (maxFid < 0) os else os.filter(_ <= maxFid)
        if (o.isEmpty) return Array.empty
        acc = PivotSearch.oplus(acc, o)
      }
      acc.filter(_ != 0)
    }
    check(Prop.forAllNoShrink(NfaGen.run, Gen.choose(-1, 13)) { (run, maxFid) =>
      PivotSearch.pivotsOfRun(run, maxFid).toSeq == fold(run, maxFid).toSeq
    }, tests = 2000)
  }

  test("minimize preserves the trie's language and is idempotent in state count") {
    check(Prop.forAllNoShrink(NfaGen.trieRuns) { runs =>
      val raw = NfaGen.trieOf(runs)
      val min = Nfa.minimize(raw)
      min.language() == raw.language() &&
        min.language() == runs.flatMap(r => cartesian(r.toList)).toSet &&
        min.numStates <= raw.numStates &&
        Nfa.minimize(min).numStates == min.numStates
    })
  }

  test("minimize preserves the language of acyclic NFAs with overlapping paths") {
    check(Prop.forAllNoShrink(NfaGen.acyclicNfa) { nfa =>
      Nfa.minimize(nfa).language() == nfa.language()
    })
  }

  test("NfaMiner.mine equals a brute-force count over the weighted NFAs' languages") {
    val input = for {
      n <- Gen.choose(1, 4)
      nfas <- Gen.listOfN(n, Gen.zip(NfaGen.acyclicNfa, Gen.choose(1L, 3L)))
      sigma <- Gen.choose(1L, 5L)
      pivot <- Gen.choose(1, 5)
    } yield (nfas.toIndexedSeq, sigma, pivot)
    check(Prop.forAllNoShrink(input) { case (nfas, sigma, pivot) =>
      val support = nfas
        .flatMap { case (nfa, w) => nfa.language().toSeq.map(_ -> w) }
        .groupMapReduce(_._1)(_._2)(_ + _)
      val want = support.collect {
        case (p, s) if s >= sigma && p.contains(pivot) => Pattern.fromList(p) -> s
      }
      NfaMiner.mine(nfas, sigma, pivot) == want
    })
  }

  /** Every word spelled by picking one item from each set. */
  private def cartesian(sets: List[Array[Int]]): Seq[List[Int]] = sets match {
    case Nil       => Seq(Nil)
    case s :: rest => for (w <- s.toSeq; tail <- cartesian(rest)) yield w :: tail
  }
}
