package repro.dict

import org.scalatest.funsuite.AnyFunSuite
import repro.{Ex, TestGen}

class DictionarySpec extends AnyFunSuite {
  import Ex._

  test("Fig 2c: item frequencies of the running example") {
    assert(dict.freq(b) == 5); assert(dict.freq(A) == 4); assert(dict.freq(d) == 3)
    assert(dict.freq(a1) == 3); assert(dict.freq(c) == 2); assert(dict.freq(e) == 1)
    assert(dict.freq(a2) == 1)
  }

  test("total order: fids ordered by decreasing frequency (b < A < d < a1 < c < e ~ a2)") {
    assert(b < A && A < d && d < a1 && a1 < c && c < e)
  }

  test("anc(a1) = {a1, A} (includes self)") {
    assert(dict.anc(a1).toSet == Set(a1, A))
  }

  test("anc of a top-level item is itself") {
    assert(dict.anc(b).toSet == Set(b))
    assert(dict.anc(A).toSet == Set(A))
  }

  test("desc(A) = {A, a1, a2} via isDesc") {
    assert(dict.isDesc(a1, A) && dict.isDesc(a2, A) && dict.isDesc(A, A))
    assert(!dict.isDesc(b, A) && !dict.isDesc(A, a1))
  }

  test("ancUpTo keeps only ancestors below the bound") {
    assert(dict.ancUpTo(a1, A).toSet == Set(a1, A))
    assert(dict.ancUpTo(a1, a1).toSet == Set(a1))
  }

  test("maxFrequentFid boundary for each sigma") {
    assert(dict.maxFrequentFid(1) == 7) // everything frequent
    assert(dict.maxFrequentFid(2) == c) // b,A,d,a1,c
    assert(dict.maxFrequentFid(3) == a1)
    assert(dict.maxFrequentFid(4) == A)
    assert(dict.maxFrequentFid(5) == b)
    assert(dict.maxFrequentFid(6) == 0) // nothing frequent
  }

  test("fid lookup by name and decode round-trip") {
    assert(dict.fid("a1") == a1)
    assert(dict.name(a1) == "a1")
    assert(dict.name(0) == "ε")
    assert(T5.toSeq.map(dict.name) == Seq("a1", "a1", "b"))
  }

  test("unknown item names raise") {
    intercept[NoSuchElementException](dict.fid("nope"))
  }

  test("Dictionary.build assigns fids by decreasing frequency with name tiebreak") {
    val d = Dictionary.build(
      parents = Map("x" -> Seq("P"), "y" -> Seq("P")),
      itemFreqs = Map("x" -> 5L, "y" -> 5L, "P" -> 9L, "z" -> 1L))
    assert(d.fid("P") == 1)          // most frequent
    assert(d.fid("x") == 2 && d.fid("y") == 3) // tie broken by name
    assert(d.fid("z") == 4)
  }

  test("Dictionary.build includes hierarchy-only items with zero frequency") {
    val d = Dictionary.build(Map("x" -> Seq("GHOST")), Map("x" -> 3L))
    assert(d.contains("GHOST"))
    assert(d.freq(d.fid("GHOST")) == 0L)
  }

  test("Dictionary.build rejects hierarchy cycles") {
    intercept[IllegalArgumentException] {
      Dictionary.build(Map("x" -> Seq("y"), "y" -> Seq("x")), Map("x" -> 1L, "y" -> 1L))
    }
  }

  test("toy hierarchy: DAG item l8 has both mid parents and the root as ancestors") {
    val (d, _) = TestGen.encodeLocal(TestGen.randomDb(1), TestGen.toyParents)
    val ancNames = d.anc(d.fid("l8")).map(d.name).toSet
    assert(ancNames == Set("l8", "m2", "m1", "top"))
  }

  test("f-list over toy db counts document frequency with hierarchy") {
    val db = Seq(Array("l0", "l1"), Array("l0"), Array("l4"))
    val (d, _) = TestGen.encodeLocal(db, TestGen.toyParents)
    assert(d.freq(d.fid("l0")) == 2)
    assert(d.freq(d.fid("m0")) == 2) // sequences 1 and 2
    assert(d.freq(d.fid("top")) == 3)
    assert(d.freq(d.fid("m1")) == 1)
    assert(d.freq(d.fid("m2")) == 0)
  }

  test("anc arrays are sorted ascending") {
    val (d, _) = TestGen.encodeLocal(TestGen.randomDb(2), TestGen.toyParents)
    for (f <- 1 to d.size) {
      val a = d.anc(f)
      assert(a.sameElements(a.sorted))
    }
  }
}
