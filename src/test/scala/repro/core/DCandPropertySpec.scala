package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import repro.{SparkSpec, TestGen}
import repro.data.SeqData
import repro.dict.Dictionary
import repro.eval.Constraints
import repro.fst.{Fst, FstCompiler, FstSimulator}

import scala.collection.mutable

/** Property tests (ScalaCheck) for the pivot search and D-CAND's packed-key
  * layers against their definitions: the `⊕` fold, the run-by-run trie, the
  * trie language, and brute-force counting.
  */
class DCandPropertySpec extends SparkSpec {

  private def check(p: Prop, tests: Int = 300): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(Seed(20190408L))
    val res = Test.check(params, p)
    assert(res.passed, res.status.toString)
  }

  test("pivotsOfRun equals the ⊕ fold over the σ-filtered output sets") {
    check(Prop.forAllNoShrink(NfaGen.run, Gen.choose(-1, 13)) { (run, maxFid) =>
      PivotFold.pivotsOfRun(run, maxFid).toSeq == PivotFold.fold(run, maxFid).toSeq
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

  /** 400 nytLite sentences: a real hierarchy. */
  private lazy val nyt = SeqData.encode(SeqData.nytLite(spark, sf = 0.01, seed = 5))
  private lazy val sentences = nyt.sequences.collect()

  test("each pivot's lane of the backward lane pass equals pivotCells, cell by cell") {
    import FstSimulator.{End, LeadsToLabel, Live}
    var pivots = 0
    def same(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int): Boolean = {
      var ok = true
      PivotSearch.search(t, fst, dict, maxFid) { (_, lanes, l, k) =>
        val cells = FstSimulator.pivotCells(t, fst, dict, k)
        def bit(a: Array[Long], c: Int, b: Int) = if ((a(c) >>> l & 1) != 0) b else 0
        ok &&= cells.length == lanes.live.length && cells.indices.forall { c =>
          cells(c) == (bit(lanes.live, c, Live << 1) | bit(lanes.toK, c, Live) |
            bit(lanes.toLabel, c, LeadsToLabel) | (if (lanes.end(c)) End else 0))
        }
        pivots += 1
      }
      ok
    }
    for ((name, patex) <- TestGen.patterns) withClue(name) {
      check(Prop.forAllNoShrink(Gen.choose(0L, 1L << 20), Gen.oneOf(1L, 3L)) { (seed, sigma) =>
        val (dict, db) = TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = 8, maxLen = 8), TestGen.toyParents)
        val fst = FstCompiler.compile(patex, dict)
        db.forall(same(_, fst, dict, dict.maxFrequentFid(sigma)))
      }, tests = 25)
    }
    for (c <- Seq(Constraints.t3(5, 1, 5), Constraints.n5(5))) {
      val fst = FstCompiler.compile(c.patex, nyt.dict)
      val maxFid = nyt.dict.maxFrequentFid(c.sigma)
      assert(sentences.forall(same(_, fst, nyt.dict, maxFid)), c.name)
    }
    assert(pivots > 1000, s"only $pivots pivots")
    // d100's candidates are its fids 1..100: pivot k is lane (k - 1) % 64, of the second chunk
    // iff k > 64.
    val pairs = FstCompiler.compile(TestGen.pairs100, TestGen.d100)
    for (t <- Seq(TestGen.shuffled100, TestGen.spaced100)) withClue(t.mkString(" ")) {
      val laneOf = mutable.Map.empty[Int, Int]
      PivotSearch.search(t, pairs, TestGen.d100, TestGen.d100.size)((_, _, l, k) => laneOf(k) = l)
      assert(laneOf.keys.exists(_ > 64) && laneOf.forall { case (k, l) => l == (k - 1) % 64 })
      assert(same(t, pairs, TestGen.d100, TestGen.d100.size))
    }
  }

  test("buildForSequence serializes like the run-by-run trie, minimized and raw") {
    def bytesOf(nfas: Map[Int, Nfa]): Map[Int, Seq[Byte]] =
      nfas.map { case (k, nfa) => k -> NfaSerializer.serialize(nfa).bytes.toSeq }
    def same(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int): Boolean =
      Seq(true, false).forall { minimize =>
        bytesOf(Nfa.buildForSequence(t, fst, dict, maxFid, minimize = minimize)) ==
          bytesOf(NfaReference.buildForSequence(t, fst, dict, maxFid, minimize))
      }
    for ((name, patex) <- TestGen.patterns) withClue(name) {
      check(Prop.forAllNoShrink(Gen.choose(0L, 1L << 20), Gen.oneOf(1L, 3L)) { (seed, sigma) =>
        val (dict, db) = TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = 8, maxLen = 8), TestGen.toyParents)
        val fst = FstCompiler.compile(patex, dict)
        db.forall(same(_, fst, dict, dict.maxFrequentFid(sigma)))
      }, tests = 25)
    }
    // A real hierarchy: 400 nytLite sentences.
    for (c <- Seq(Constraints.t3(5, 1, 5), Constraints.n5(5))) {
      val fst = FstCompiler.compile(c.patex, nyt.dict)
      val maxFid = nyt.dict.maxFrequentFid(c.sigma)
      assert(sentences.forall(same(_, fst, nyt.dict, maxFid)), c.name)
    }
    // Pivots in the second chunk of 64 candidate lanes, one behind a chunk without a pivot.
    val pairs = FstCompiler.compile(TestGen.pairs100, TestGen.d100)
    for (t <- Seq(TestGen.shuffled100, TestGen.spaced100))
      assert(same(t, pairs, TestGen.d100, TestGen.d100.size), t.mkString(" "))
  }

  test("minimize on the miner's decoded trie equals the builder's minimized NFA") {
    // `deserialize` numbers states in visit order and interns labels on
    // decode; minimizing that form must still reach the minimal NFA.
    def same(t: Array[Int], fst: Fst, dict: Dictionary, maxFid: Int): Boolean = {
      val min = Nfa.buildForSequence(t, fst, dict, maxFid, minimize = true)
      Nfa.buildForSequence(t, fst, dict, maxFid, minimize = false).forall { case (k, raw) =>
        val decoded = NfaSerializer.deserialize(NfaSerializer.serialize(raw))
        NfaSerializer.serialize(Nfa.minimize(decoded)) == NfaSerializer.serialize(min(k))
      }
    }
    for ((name, patex) <- TestGen.patterns) withClue(name) {
      check(Prop.forAllNoShrink(Gen.choose(0L, 1L << 20), Gen.oneOf(1L, 3L)) { (seed, sigma) =>
        val (dict, db) = TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = 8, maxLen = 8), TestGen.toyParents)
        val fst = FstCompiler.compile(patex, dict)
        db.forall(same(_, fst, dict, dict.maxFrequentFid(sigma)))
      }, tests = 25)
    }
    val nyt = SeqData.encode(SeqData.nytLite(spark, sf = 0.01, seed = 5))
    val sentences = nyt.sequences.collect()
    for (c <- Seq(Constraints.t3(5, 1, 5), Constraints.n5(5))) {
      val fst = FstCompiler.compile(c.patex, nyt.dict)
      val maxFid = nyt.dict.maxFrequentFid(c.sigma)
      assert(sentences.forall(same(_, fst, nyt.dict, maxFid)), c.name)
    }
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
      val min = Nfa.minimize(nfa)
      NfaGen.language(min) == NfaGen.language(nfa) &&
        reachable(min) == min.numStates && Nfa.minimize(min).numStates == min.numStates
    })
  }

  test("no two states of a minimized trie accept the same label-id strings") {
    check(Prop.forAllNoShrink(NfaGen.trieRuns) { runs =>
      distinctLanguages(Nfa.minimize(NfaGen.trieOf(runs)))
    })
    for ((name, patex) <- TestGen.patterns) withClue(name) {
      check(Prop.forAllNoShrink(Gen.choose(0L, 1L << 20), Gen.oneOf(1L, 3L)) { (seed, sigma) =>
        val (dict, db) = TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = 8, maxLen = 8), TestGen.toyParents)
        val fst = FstCompiler.compile(patex, dict)
        db.forall(t => Nfa.buildForSequence(t, fst, dict, dict.maxFrequentFid(sigma), minimize = true)
          .values.forall(distinctLanguages))
      }, tests = 25)
    }
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

  /** The number of `nfa`'s states reachable from state 0. */
  private def reachable(nfa: Nfa): Int = {
    val seen = mutable.Set(0)
    def rec(q: Int): Unit = for ((_, t) <- NfaGen.edgesOf(nfa, q) if seen.add(t)) rec(t)
    rec(0)
    seen.size
  }

  /** Whether `nfa`'s states accept pairwise different sets of label-id
    * strings, which for a trie's minimization is minimality.
    */
  private def distinctLanguages(nfa: Nfa): Boolean = {
    val accepted = new Array[Set[List[Int]]](nfa.numStates)
    def of(q: Int): Set[List[Int]] = {
      if (accepted(q) == null)
        accepted(q) = nfa.edges(q).grouped(2).flatMap(e => of(e(1)).map(e(0) :: _)).toSet ++
          (if (nfa.isFinal(q)) Set(Nil) else Set.empty)
      accepted(q)
    }
    (0 until nfa.numStates).map(of).distinct.size == nfa.numStates
  }

  /** Every word spelled by picking one item from each set. */
  private def cartesian(sets: List[Array[Int]]): Seq[List[Int]] = sets match {
    case Nil       => Seq(Nil)
    case s :: rest => for (w <- s.toSeq; tail <- cartesian(rest)) yield w :: tail
  }
}
