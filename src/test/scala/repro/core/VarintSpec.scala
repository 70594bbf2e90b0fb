package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

import scala.collection.mutable

/** The one varint codec, shared by D-SEQ's shuffle records and the NFA format. */
class VarintSpec extends AnyFunSuite {

  /** The first value of each byte length, the last one before it, and `Int.MaxValue`. */
  private val edges = Seq(0, 1, 1 << 7, 1 << 14, 1 << 21, 1 << 28).flatMap(x => Seq(x - 1, x).filter(_ >= 0)) :+
    Int.MaxValue

  private def width(x: Int): Int = if (x < (1 << 7)) 1 else if (x < (1 << 14)) 2 else if (x < (1 << 21)) 3
    else if (x < (1 << 28)) 4 else 5

  test("encode/decode round-trips random non-negative sequences, at one byte per started 7 bits") {
    val value = Gen.frequency(3 -> Gen.choose(0, 300), 2 -> Gen.oneOf(edges), 1 -> Gen.choose(0, Int.MaxValue))
    val params = Test.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(20190408L))
    val res = Test.check(params, Prop.forAllNoShrink(Gen.containerOf[Array, Int](value)) { xs =>
      val bs = Varint.encode(xs)
      Prop(Varint.decode(bs).sameElements(xs) && bs.length == xs.map(width).sum) :| xs.mkString("[", ",", "]")
    })
    assert(res.passed, res.status.toString)
  }

  test("the values at each byte-length edge and the empty sequence round-trip") {
    for (x <- edges) {
      val bs = Varint.encode(Array(x))
      assert(bs.length == width(x) && Varint.decode(bs).sameElements(Array(x)), s"x=$x")
    }
    assert(Varint.encode(Array(1 << 7, 1 << 14, 1 << 21, 1 << 28, Int.MaxValue)).length == 2 + 3 + 4 + 5 + 5)
    assert(Varint.encode(Array.empty[Int]).isEmpty)
    assert(Varint.decode(Array.empty[Byte]).isEmpty)
  }

  test("the reader reads put's values in place and sees a value below 0x80 as a one-byte tag") {
    val out = new mutable.ArrayBuilder.ofByte
    for (x <- Seq(4, 1 << 21, 0, Int.MaxValue)) Varint.put(out, x)
    val in = new Varint.Reader(out.result())
    assert(in.peekTag == 4)
    in.skipTag()
    assert(in.next() == (1 << 21) && in.pos == 5)
    assert(in.next() == 0 && in.next() == Int.MaxValue && !in.hasNext)
  }

  test("a negative value is rejected") {
    intercept[IllegalArgumentException](Varint.encode(Array(3, -1)))
  }
}
