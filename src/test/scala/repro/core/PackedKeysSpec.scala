package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The contracts of [[SliceInterner]] and [[RevuzClasses]]. */
class PackedKeysSpec extends AnyFunSuite {

  private def intern(in: SliceInterner, xs: Int*): Int = in.intern(xs.toArray, 0, xs.length)

  test("SliceInterner ids are dense and in first-seen order") {
    val in = new SliceInterner
    val slices = Seq(Seq(1), Seq(2, 3), Seq(1), Seq(), Seq(2, 3), Seq(4))
    assert(slices.map(intern(in, _: _*)) == Seq(0, 1, 0, 2, 1, 3))
    assert(in.table.take(4).map(_.toSeq).toSeq == Seq(Seq(1), Seq(2, 3), Seq(), Seq(4)))
    // Past many growths of the table, every slice keeps its id.
    val many = (0 until 2000).map(i => Seq(i % 7, i))
    val ids = many.map(intern(in, _: _*))
    assert(ids == (4 until 2004))
    assert(many.map(intern(in, _: _*)) == ids)
  }

  test("SliceInterner gives equal content from different arrays and offsets one id") {
    val in = new SliceInterner
    val id = in.intern(Array(9, 1, 2, 9), 1, 3)
    assert(in.intern(Array(1, 2), 0, 2) == id)
    assert(in.intern(Array(0, 0, 0, 1, 2), 3, 5) == id)
    assert(in.table(id).toSeq == Seq(1, 2))
  }

  test("SliceInterner tells a slice from its prefix") {
    val in = new SliceInterner
    val ids = Seq(intern(in, 1, 2), intern(in, 1, 2, 3), intern(in), intern(in, 0), intern(in, 0, 0))
    assert(ids.distinct.size == ids.size)
  }

  test("SliceInterner tells apart distinct slices with the same polynomial hash") {
    def poly(xs: Seq[Int]): Int = xs.foldLeft(1)(31 * _ + _)
    assert(poly(Seq(0, 0, 31)) == 29822 && poly(Seq(0, 1, 0)) == 29822)
    val in = new SliceInterner
    val x = intern(in, 0, 0, 31)
    val y = intern(in, 0, 1, 0)
    assert(x != y)
    assert(intern(in, 0, 0, 31) == x && intern(in, 0, 1, 0) == y)
  }

  test("RevuzClasses merges equal signatures whatever their edge order or repeats") {
    val rc = new RevuzClasses(merge = true)
    val leaf = rc.classOf(isFinal = true, Array.emptyIntArray, 0, 0)
    val a = rc.classOf(isFinal = false, Array(3, leaf, 5, leaf), 0, 2)
    assert(a == leaf + 1)
    assert(rc.classOf(isFinal = false, Array(5, leaf, 3, leaf), 0, 2) == a)
    assert(rc.classOf(isFinal = false, Array(5, leaf, 3, leaf, 5, leaf), 0, 3) == a)
    assert(rc.classOf(isFinal = false, Array(7, 7, 3, leaf, 5, leaf), 2, 2) == a)
    assert(rc.classOf(isFinal = true, Array.emptyIntArray, 0, 0) == leaf)
    // The same pairs with another finality, or another child class, are a new class.
    val b = rc.classOf(isFinal = true, Array(3, leaf, 5, leaf), 0, 2)
    assert(b == a + 1)
    assert(rc.classOf(isFinal = false, Array(3, leaf, 5, a), 0, 2) == b + 1)
    val root = rc.classOf(isFinal = false, Array(1, a, 2, b), 0, 2)
    val nfa = rc.result(Array.fill(6)(Array(0)))
    assert(nfa.numStates == root + 1)
    assert(nfa.edges(0).toSeq == Seq(1, a + 1, 2, b + 1)) // the root's class is state 0
    assert(nfa.edges(a + 1).toSeq == Seq(3, leaf + 1, 5, leaf + 1)) // its first state's edge order
    assert(nfa.isFinal(leaf + 1) && nfa.isFinal(b + 1) && !nfa.isFinal(a + 1))
  }

  test("RevuzClasses forgets its classes in result, and merges nothing without merge") {
    val rc = new RevuzClasses(merge = true)
    rc.classOf(isFinal = true, Array.emptyIntArray, 0, 0)
    rc.classOf(isFinal = false, Array(3, 0), 0, 1)
    rc.result(Array.fill(4)(Array(0)))
    assert(rc.classOf(isFinal = false, Array(3, 0), 0, 1) == 0)
    assert(rc.classOf(isFinal = true, Array.emptyIntArray, 0, 0) == 1)

    val each = new RevuzClasses(merge = false)
    assert(Seq.fill(3)(each.classOf(isFinal = true, Array.emptyIntArray, 0, 0)) == Seq(0, 1, 2))
    assert(each.classOf(isFinal = false, Array(3, 0, 4, 1), 0, 2) == 3)
    assert(each.result(Array.fill(5)(Array(0))).edges(0).toSeq == Seq(3, 1, 4, 2))
  }
}
