package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.fst.{FstCompiler, FstSimulator}

import scala.collection.mutable

/** Property tests (ScalaCheck) for the pivot search and D-CAND's packed-key
  * layers against their definitions: the `⊕` fold, the trie language, and
  * brute-force counting.
  */
class DCandPropertySpec extends AnyFunSuite {

  private def check(p: Prop, tests: Int = 300): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(Seed(20190408L))
    val res = Test.check(params, p)
    assert(res.passed, res.status.toString)
  }

  test("pivotsOfRun equals the ⊕ fold over the σ-filtered output sets") {
    check(Prop.forAllNoShrink(NfaGen.run, Gen.choose(-1, 13)) { (run, maxFid) =>
      PivotSearch.pivotsOfRun(run, maxFid).toSeq == PivotFold.fold(run, maxFid).toSeq
    }, tests = 2000)
  }

  test("grid pivots equal the union over accepting runs of the ⊕ fold") {
    val input = Gen.zip(Gen.oneOf(TestGen.patterns.map(_._2)), Gen.choose(0L, 1L << 20), Gen.choose(1L, 4L))
    check(Prop.forAllNoShrink(input) { case (patex, seed, sigma) =>
      val (dict, db) = TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = 8, maxLen = 8), TestGen.toyParents)
      val fst = FstCompiler.compile(patex, dict)
      val maxFid = dict.maxFrequentFid(sigma)
      db.forall { t =>
        val want = mutable.SortedSet.empty[Int]
        FstSimulator.foreachAcceptingRun(t, fst, dict)(want ++= PivotFold.fold(_, maxFid))
        PivotSearch.grid(t, fst, dict, maxFid).pivots.toSeq == want.toSeq
      }
    }, tests = 200)
  }

  test("minimize preserves the trie's language and is idempotent in state count") {
    check(Prop.forAllNoShrink(NfaGen.trieRuns) { runs =>
      val raw = NfaGen.trieOf(runs)
      val min = Nfa.minimize(raw)
      NfaGen.language(min) == NfaGen.language(raw) &&
        NfaGen.language(min) == runs.flatMap(r => cartesian(r.toList)).toSet &&
        min.numStates <= raw.numStates &&
        Nfa.minimize(min).numStates == min.numStates
    })
  }

  test("minimize preserves the language of acyclic NFAs with overlapping paths") {
    check(Prop.forAllNoShrink(NfaGen.acyclicNfa) { nfa =>
      NfaGen.language(Nfa.minimize(nfa)) == NfaGen.language(nfa)
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
        .flatMap { case (nfa, w) => NfaGen.language(nfa).toSeq.map(_ -> w) }
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
