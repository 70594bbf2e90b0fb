package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.Ex._
import repro.fst.{BlowUpException, Fst, FstCompiler, FstSimulator}

import java.util.Random

class NfaSpec extends AnyFunSuite {

  private lazy val fst = FstCompiler.compile(piEx, dict)
  private def numEdges(nfa: Nfa): Int = nfa.edges.iterator.map(_.length).sum / 2

  test("Fig 8: NFA for ρa1(T5) accepts exactly {a1b, a1a1b, a1Ab}") {
    val nfas = Nfa.buildForSequence(T5, fst, dict, dict.maxFrequentFid(2))
    assert(nfas.keySet == Set(a1))
    assert(NfaGen.language(nfas(a1)) ==
      Set(List(a1, b), List(a1, a1, b), List(a1, A, b)))
  }

  test("Fig 8: minimized NFA for ρa1(T5) has 4 states and 4 edges") {
    val nfa = Nfa.buildForSequence(T5, fst, dict, dict.maxFrequentFid(2))(a1)
    assert(nfa.numStates == 4, s"states=${nfa.numStates}")
    assert(numEdges(nfa) == 4, s"edges=${numEdges(nfa)}")
  }

  test("Fig 7: NFAs for T1 split candidates between pivots c and a1") {
    val nfas = Nfa.buildForSequence(T1, fst, dict, dict.maxFrequentFid(2))
    assert(nfas.keySet == Set(a1, c))
    assert(NfaGen.language(nfas(c)) == Set(
      List(a1, c, d, c, b), List(a1, c, d, b), List(a1, c, b),
      List(a1, d, c, b), List(a1, c, c, b)))
    assert(NfaGen.language(nfas(a1)) == Set(List(a1, d, b), List(a1, b)))
  }

  test("Fig 7c: minimized NFA for ρc(T1) has 7 vertices and 10 edges") {
    val nfa = Nfa.buildForSequence(T1, fst, dict, dict.maxFrequentFid(2))(c)
    assert(nfa.numStates == 7, s"states=${nfa.numStates}")
    assert(numEdges(nfa) <= 12, s"edges=${numEdges(nfa)}") // paper: 10
  }

  test("Fig 7b: unminimized trie for ρc(T1) has 13 vertices and 12 edges") {
    val nfa = Nfa.buildForSequence(T1, fst, dict, dict.maxFrequentFid(2), minimize = false)(c)
    assert(nfa.numStates == 13, s"states=${nfa.numStates}")
    assert(numEdges(nfa) == 12, s"edges=${numEdges(nfa)}")
  }

  test("T4 with σ=2 builds no NFAs (all candidates contain infrequent a2)") {
    assert(Nfa.buildForSequence(T4, fst, dict, dict.maxFrequentFid(2)).isEmpty)
  }

  test("node cap: a cap equal to the sequence's trie node count passes, one fewer throws") {
    val maxFid = dict.maxFrequentFid(1)
    val nodes = Nfa.buildForSequence(T1, fst, dict, maxFid, minimize = false).values.map(_.numStates).sum
    assert(nodes > 1)
    assert(Nfa.buildForSequence(T1, fst, dict, maxFid, maxNodes = nodes).nonEmpty)
    intercept[BlowUpException](Nfa.buildForSequence(T1, fst, dict, maxFid, maxNodes = nodes - 1))
  }

  test("a product-state index past Int range is rejected before the grid allocates") {
    val states = 1024
    val wide = new Fst(states, 0, Array.fill(states)(true), Array.empty)
    val long = new Array[Int](1 << 20) // 2 * (2^20 + 1) * 1024 product states > 2^31 - 1
    val e = intercept[IllegalArgumentException](Nfa.buildForSequence(long, wide, dict, dict.size))
    assert(e.getMessage.contains("more product states than an Int indexes"))
  }

  test("minimization preserves the language (running example, all sequences)") {
    for (t <- db; sigma <- Seq(1L, 2L)) {
      val maxFid = dict.maxFrequentFid(sigma)
      val min = Nfa.buildForSequence(t, fst, dict, maxFid, minimize = true)
      val raw = Nfa.buildForSequence(t, fst, dict, maxFid, minimize = false)
      assert(min.keySet == raw.keySet)
      for (k <- min.keySet) {
        assert(NfaGen.language(min(k)) == NfaGen.language(raw(k)), s"pivot ${dict.name(k)}")
        assert(min(k).numStates <= raw(k).numStates)
      }
    }
  }

  test("per-pivot NFA languages partition Gσπ(T) by pivot") {
    for (t <- db; sigma <- Seq(1L, 2L)) {
      val maxFid = dict.maxFrequentFid(sigma)
      val cands = FstSimulator.candidates(t, fst, dict, maxFid)
      val nfas = Nfa.buildForSequence(t, fst, dict, maxFid)
      for (k <- nfas.keySet) {
        val accepted = NfaGen.language(nfas(k))
        val wanted = cands.filter(_.max == k)
        // the NFA may accept extra lower-pivot sequences (filtered later in
        // mining) but must contain exactly the pivot-k candidates among
        // sequences containing k
        assert(accepted.filter(_.max == k) == wanted, s"pivot ${dict.name(k)}")
      }
      // every pivot present among candidates has an NFA
      assert(nfas.keySet == cands.map(_.max))
    }
  }

  test("serialization round-trips the running example NFAs") {
    for (t <- db; sigma <- Seq(1L, 2L)) {
      val maxFid = dict.maxFrequentFid(sigma)
      for ((k, nfa) <- Nfa.buildForSequence(t, fst, dict, maxFid)) {
        val rt = NfaSerializer.deserialize(NfaSerializer.serialize(nfa))
        assert(NfaGen.language(rt) == NfaGen.language(nfa), s"pivot ${dict.name(k)}")
      }
    }
  }

  test("serialization of Fig 8 NFA uses implicit sources/targets (compact)") {
    val nfa = Nfa.buildForSequence(T5, fst, dict, dict.maxFrequentFid(2))(a1)
    val bytes = NfaSerializer.serialize(nfa)
    // 4 transitions, labels of total 4 items; with compression this stays tiny
    assert(bytes.size <= 20, s"size=${bytes.size}")
  }

  test("identical sequences produce identical serialized NFAs (aggregation key)") {
    val maxFid = dict.maxFrequentFid(2)
    val b1 = NfaSerializer.serialize(Nfa.buildForSequence(T5, fst, dict, maxFid)(a1))
    val b2 = NfaSerializer.serialize(Nfa.buildForSequence(T5.clone(), fst, dict, maxFid)(a1))
    assert(b1 == b2 && b1.hashCode == b2.hashCode)
  }

  test("golden bytes: serialized running-example NFAs at pivot a1 (σ=2) are pinned") {
    // The List/Set-keyed trie and minimizer's NFAs, in the format with label
    // back-references: each NFA's second {b} edge is `4, i`, where `i` is
    // {b}'s index among the labels written in full. The serialized NFA is
    // D-CAND's aggregation key, so it must not drift.
    val maxFid = dict.maxFrequentFid(2)
    val golden = Seq(
      (T1, true, Seq(0, 1, 4, 0, 1, 3, 0, 1, 1, 3, 1, 1, 4, 2, 2, 3)),
      (T1, false, Seq(0, 1, 4, 0, 1, 3, 0, 1, 1, 3, 1, 1, 4, 2, 3)),
      (T2, true, Seq(0, 1, 4, 0, 1, 1, 3, 1, 1, 0, 2, 2, 2, 4, 1, 2, 2)),
      (T2, false, Seq(0, 1, 4, 0, 1, 1, 3, 1, 1, 0, 2, 2, 2, 4, 1, 3)),
      (T5, true, Seq(0, 1, 4, 0, 1, 1, 3, 1, 1, 0, 2, 2, 2, 4, 1, 2, 2)),
      (T5, false, Seq(0, 1, 4, 0, 1, 1, 3, 1, 1, 0, 2, 2, 2, 4, 1, 3)))
    for ((t, minimize, bytes) <- golden) {
      val nfa = Nfa.buildForSequence(t, fst, dict, maxFid, minimize = minimize)(a1)
      assert(NfaSerializer.serialize(nfa).bytes.toSeq == bytes.map(_.toByte),
        s"${t.map(dict.name).mkString(" ")} minimize=$minimize")
    }
  }

  test("a repeated label is written in full once, then as a back-reference to the same label id") {
    val ab = Array(b, A) // a two-item label on three edges
    val nfa = NfaGen.nfa(Array(false, false, false, true, true), Array(
      Array((ab, 1), (Array(d), 2)), Array((ab, 3)), Array((ab, 4)), Array(), Array()))
    val bytes = NfaSerializer.serialize(nfa)
    // {b,A} in full (index 0); `4, 0` and final; back to the root; {d} in full (index 1); `4, 0` and final
    assert(bytes.bytes.toSeq == Seq(0, 2, b, A - b, 4, 0, 3, 1, 0, 0, 1, d, 4, 0, 3).map(_.toByte))
    val rt = NfaSerializer.deserialize(bytes)
    assert(NfaGen.language(rt) == NfaGen.language(nfa))
    val abEdges = Seq(rt.edges(0)(0), rt.edges(1)(0), rt.edges(3)(0)) // visit order: 0, 1, 3, 2, 4
    assert(abEdges.distinct.size == 1 && rt.labels(abEdges.head).sameElements(ab))
    assert(NfaSerializer.serialize(rt) == bytes)
  }

  test("deserialize rejects a label back-reference past the labels written before it") {
    for ((bytes, i, written) <- Seq((Seq(4, 0), 0, 0), (Seq(0, 1, 3, 4, 1), 1, 1))) {
      val e = intercept[IllegalArgumentException](
        NfaSerializer.deserialize(new NfaSerializer.Bytes(bytes.map(_.toByte).toArray)))
      assert(e.getMessage.contains(s"label back-reference $i at byte ${bytes.length - 1}, " +
        s"but only $written labels were written before it"), e.getMessage)
    }
  }

  test("trie inserts dedupe runs generating identical output-set sequences") {
    val nfa = NfaGen.trieOf(Seq(Seq(Array(a1), Array(b)), Seq(Array(a1), Array(b))))
    assert(nfa.numStates == 3 && numEdges(nfa) == 2)
  }

  test("trie children keep insertion order and states are numbered BFS") {
    val nfa = NfaGen.trieOf(Seq(
      Seq(Array(c), Array(b)), Seq(Array(a1)), Seq(Array(c), Array(A, d))))
    assert(NfaGen.edgesOf(nfa, 0) == Seq((Seq(c), 1), (Seq(a1), 2)))
    assert(NfaGen.edgesOf(nfa, 1) == Seq((Seq(b), 3), (Seq(A, d), 4)))
    assert(nfa.isFinal.toSeq == Seq(false, false, true, true, true))
  }

  // ------------------------------------------- randomized round-trip checks

  for (seed <- Seq(21, 22, 23)) {
    test(s"random tries: minimize + serialize preserve the language [seed=$seed]") {
      val r = new Random(seed)
      for (_ <- 0 until 30) {
        val raw = NfaGen.trieOf(Seq.fill(1 + r.nextInt(6)) {
          Seq.fill(1 + r.nextInt(4))(Array.fill(1 + r.nextInt(3))(1 + r.nextInt(5)).distinct.sorted)
        })
        val min = Nfa.minimize(raw)
        assert(NfaGen.language(min) == NfaGen.language(raw))
        assert(min.numStates <= raw.numStates)
        val rt = NfaSerializer.deserialize(NfaSerializer.serialize(min))
        assert(NfaGen.language(rt) == NfaGen.language(min))
      }
    }
  }

  for ((name, patex) <- TestGen.patterns; seed <- Seq(31, 32)) {
    test(s"NFA languages match per-pivot candidates [$name, seed=$seed]") {
      val (d, dbr) = TestGen.encodeLocal(TestGen.randomDb(seed, nSeqs = 15), TestGen.toyParents)
      val f = FstCompiler.compile(patex, d)
      for (t <- dbr; sigma <- Seq(1L, 3L)) {
        val maxFid = d.maxFrequentFid(sigma)
        val cands = FstSimulator.candidates(t, f, d, maxFid)
        val nfas = Nfa.buildForSequence(t, f, d, maxFid)
        assert(nfas.keySet == cands.map(_.max), "pivot key sets differ")
        for (k <- nfas.keySet) {
          val rt = NfaSerializer.deserialize(NfaSerializer.serialize(nfas(k)))
          assert(NfaGen.language(rt).filter(_.max == k) == cands.filter(_.max == k))
        }
      }
    }
  }
}
