package repro.patex

import org.scalatest.funsuite.AnyFunSuite
import PatEx._

class PatExParserSpec extends AnyFunSuite {
  private def p(s: String) = PatExParser.parse(s)

  test("single item") { assert(p("foo") == Item("foo", generalize = false, exact = false)) }
  test("item with =") { assert(p("foo=") == Item("foo", generalize = false, exact = true)) }
  test("item with ↑ (ascii ^)") { assert(p("foo^") == Item("foo", generalize = true, exact = false)) }
  test("item with unicode ↑") { assert(p("foo↑") == Item("foo", generalize = true, exact = false)) }
  test("item with ^=") { assert(p("be^=") == Item("be", generalize = true, exact = true)) }
  test("dot") { assert(p(".") == Dot(false)) }
  test("dot with ^") { assert(p(".^") == Dot(true)) }
  test("quoted item names allow spaces") {
    assert(p("('MP3 Players')") == Capture(Item("MP3 Players", generalize = false, exact = false)))
  }

  test("capture group") { assert(p("(foo)") == Capture(Item("foo", false, false))) }
  test("brackets group without capture") { assert(p("[foo]") == Item("foo", false, false)) }

  test("concatenation binds tighter than alternation") {
    assert(p("a b|c d") == Alt(List(
      Concat(List(Item("a", false, false), Item("b", false, false))),
      Concat(List(Item("c", false, false), Item("d", false, false))))))
  }

  test("postfix star/plus/opt") {
    assert(p("a*") == Repeat(Item("a", false, false), 0, Int.MaxValue))
    assert(p("a+") == Repeat(Item("a", false, false), 1, Int.MaxValue))
    assert(p("a?") == Repeat(Item("a", false, false), 0, 1))
  }

  test("postfix chains: a+? is (a+)?") {
    assert(p("a+?") == Repeat(Repeat(Item("a", false, false), 1, Int.MaxValue), 0, 1))
  }

  test("braces {n}, {n,}, {n,m}, {,m}") {
    assert(p("a{3}") == Repeat(Item("a", false, false), 3, 3))
    assert(p("a{2,}") == Repeat(Item("a", false, false), 2, Int.MaxValue))
    assert(p("a{2,5}") == Repeat(Item("a", false, false), 2, 5))
    assert(p("a{,5}") == Repeat(Item("a", false, false), 0, 5))
  }

  test("repetition binds to the bracketed group") {
    assert(p("[a b]{1,4}") ==
      Repeat(Concat(List(Item("a", false, false), Item("b", false, false))), 1, 4))
  }

  test("πex parses: .*(A)[(.^).*]*(b).*") {
    val ast = p(".*(A)[(.^).*]*(b).*")
    assert(ast == Concat(List(
      Repeat(Dot(false), 0, Int.MaxValue),
      Capture(Item("A", false, false)),
      Repeat(Concat(List(Capture(Dot(true)), Repeat(Dot(false), 0, Int.MaxValue))), 0, Int.MaxValue),
      Capture(Item("b", false, false)),
      Repeat(Dot(false), 0, Int.MaxValue))))
  }

  test("N1 parses: ENTITY (VERB+ NOUN+? PREP?) ENTITY") {
    val ast = p("ENTITY (VERB+ NOUN+? PREP?) ENTITY")
    assert(ast == Concat(List(
      Item("ENTITY", false, false),
      Capture(Concat(List(
        Repeat(Item("VERB", false, false), 1, Int.MaxValue),
        Repeat(Repeat(Item("NOUN", false, false), 1, Int.MaxValue), 0, 1),
        Repeat(Item("PREP", false, false), 0, 1)))),
      Item("ENTITY", false, false))))
  }

  test("N2 parses: (ENTITY^ VERB+ NOUN+? PREP? ENTITY^)") {
    assert(p("(ENTITY^ VERB+ NOUN+? PREP? ENTITY^)").isInstanceOf[Capture])
  }

  test("N3 parses: (ENTITY^ be^=) DET? (ADV? ADJ? NOUN)") {
    val ast = p("(ENTITY^ be^=) DET? (ADV? ADJ? NOUN)")
    ast match {
      case Concat(List(Capture(_), Repeat(Item("DET", false, false), 0, 1), Capture(_))) => ()
      case other => fail(other.toString)
    }
  }

  test("N4 parses: (.^){3} NOUN") {
    assert(p("(.^){3} NOUN") ==
      Concat(List(Repeat(Capture(Dot(true)), 3, 3), Item("NOUN", false, false))))
  }

  test("N5 parses: ([.^. .]|[. .^.]|[. . .^])") {
    val ast = p("([.^. .]|[. .^.]|[. . .^])")
    ast match {
      case Capture(Alt(es)) => assert(es.size == 3)
      case other            => fail(other.toString)
    }
  }

  test("A1 parses: (Electr^)[.{0,2}(Electr^)]{1,4}") {
    val ast = p("(Electr^)[.{0,2}(Electr^)]{1,4}")
    ast match {
      case Concat(List(Capture(Item("Electr", true, false)), Repeat(Concat(_), 1, 4))) => ()
      case other => fail(other.toString)
    }
  }

  test("T1 parses: (.)[.*(.)]{,4}") {
    val ast = p("(.)[.*(.)]{,4}")
    ast match {
      case Concat(List(Capture(Dot(false)), Repeat(Concat(List(Repeat(Dot(false), 0, Int.MaxValue), Capture(Dot(false)))), 0, 4))) => ()
      case other => fail(other.toString)
    }
  }

  test("T2/T3 parse: (.)[.{0,1}(.)]{1,4} and (.^)[.{0,1}(.^)]{1,4}") {
    assert(p("(.)[.{0,1}(.)]{1,4}").isInstanceOf[Concat])
    assert(p("(.^)[.{0,1}(.^)]{1,4}").isInstanceOf[Concat])
  }

  test("A3 parses: DigitalCamera[.{0,3}(.^)]{1,4}") {
    assert(p("DigitalCamera[.{0,3}(.^)]{1,4}").isInstanceOf[Concat])
  }

  test("nested alternation with brackets") {
    assert(p("[a|[b c]]") == Alt(List(Item("a", false, false),
      Concat(List(Item("b", false, false), Item("c", false, false))))))
  }

  test("parse(print(parse(s))) == parse(s) for the batteries") {
    import repro.eval.Constraints._
    val strings = repro.TestGen.patterns.map(_._2) ++
      (tableIVBattery :+ t2(5, 1, 5)).map(_.patex) ++
      Seq("('MP3 Players'^=)", "[a|[b c]]|d", "[[a b] c]{2,} [d|e]*", "a+? b{,5} [.^ .]{3}{1,2}")
    for (s <- strings) {
      val printed = PatExPrinter.print(p(s))
      assert(p(printed) == p(s), s"$s printed as $printed")
    }
  }

  test("errors: unbalanced parens") { intercept[Exception](p("(a")) }
  test("errors: dangling operator") { intercept[Exception](p("*a")) }
  test("errors: empty alternation branch") { intercept[Exception](p("a|")) }
  test("errors: bad repetition bounds") { intercept[Exception](p("a{3,1}")) }
  test("errors: a repetition bound past Int range is a ParseException at the bound") {
    val e = intercept[PatExParser.ParseException](p("a{2,99999999999}"))
    assert(e.pos == 4)
    assert(intercept[PatExParser.ParseException](p("a{99999999999}")).pos == 2)
  }
  test("errors: unterminated quote") { intercept[Exception](p("('abc")) }
  test("errors: trailing garbage") { intercept[Exception](p("a)")) }
}
