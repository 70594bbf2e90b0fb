package repro.patex

import scala.collection.mutable.ListBuffer

/** Recursive-descent parser for DESQ pattern expressions.
  *
  * Tokens: item names (bare identifiers, or single-quoted strings for names
  * with spaces), `.`, `↑`/`^`, `=`, `(`, `)`, `[`, `]`, `*`, `+`, `?`,
  * `{n}`, `{n,}`, `{n,m}`, `|`. Whitespace separates tokens (concatenation).
  *
  * Examples (from the paper): `.*(A)[(.^).*]*(b).*`,
  * `ENTITY (VERB+ NOUN+? PREP?) ENTITY`, `(.^){3} NOUN`,
  * `(.)[.{0,2}(.)]{1,4}`.
  */
object PatExParser {

  def parse(s: String): PatEx = new PatExParser(s).parseAll()

  final class ParseException(msg: String, val pos: Int)
      extends IllegalArgumentException(s"$msg (at position $pos)")
}

final class PatExParser(input: String) {
  import PatEx._
  import PatExParser.ParseException

  private var pos = 0

  def parseAll(): PatEx = {
    val e = parseAlt()
    skipWs()
    if (pos < input.length) fail(s"unexpected '${input(pos)}'")
    e
  }

  private def fail(msg: String): Nothing = throw new ParseException(msg, pos)

  private def skipWs(): Unit = while (pos < input.length && input(pos).isWhitespace) pos += 1

  private def peek: Char = if (pos < input.length) input(pos) else '\u0000'

  private def expect(c: Char): Unit = {
    skipWs()
    if (peek != c) fail(s"expected '$c'")
    pos += 1
  }

  // alt := concat ('|' concat)*
  private def parseAlt(): PatEx = {
    val parts = ListBuffer(parseConcat())
    skipWs()
    while (peek == '|') { pos += 1; parts += parseConcat(); skipWs() }
    if (parts.size == 1) parts.head else Alt(parts.toList)
  }

  // concat := postfix+
  private def parseConcat(): PatEx = {
    val parts = ListBuffer.empty[PatEx]
    var done = false
    while (!done) {
      skipWs()
      peek match {
        case '\u0000' | ')' | ']' | '|' => done = true
        case _                          => parts += parsePostfix()
      }
    }
    if (parts.isEmpty) fail("empty expression")
    if (parts.size == 1) parts.head else Concat(parts.toList)
  }

  // postfix := primary ('*' | '+' | '?' | '{..}')*
  private def parsePostfix(): PatEx = {
    var e = parsePrimary()
    var done = false
    while (!done) {
      // No skipWs here: a postfix operator must be adjacent to its operand —
      // whitespace means concatenation and `A +` would otherwise be ambiguous
      // with an (invalid) dangling operator.
      peek match {
        case '*' => pos += 1; e = star(e)
        case '+' => pos += 1; e = plus(e)
        case '?' => pos += 1; e = opt(e)
        case '{' => e = parseBraces(e)
        case _   => done = true
      }
    }
    e
  }

  // braces := '{' n? (',' m?)? '}'   — {n}, {n,}, {n,m}, {,m} (min defaults 0)
  private def parseBraces(e: PatEx): PatEx = {
    expect('{')
    skipWs()
    val n = if (peek.isDigit) parseInt() else 0
    skipWs()
    val rep =
      if (peek == ',') {
        pos += 1; skipWs()
        val m = if (peek.isDigit) parseInt() else Int.MaxValue
        Repeat(e, n, m)
      } else Repeat(e, n, n)
    expect('}')
    if (rep.min > rep.max) fail(s"bad repetition bounds {${rep.min},${rep.max}}")
    rep
  }

  private def parseInt(): Int = {
    val start = pos
    while (peek.isDigit) pos += 1
    val digits = input.substring(start, pos)
    digits.toIntOption.getOrElse(throw new ParseException(s"repetition bound $digits exceeds ${Int.MaxValue}", start))
  }

  // primary := '[' alt ']' | '(' alt ')' | itemex | dot
  private def parsePrimary(): PatEx = {
    skipWs()
    peek match {
      case '[' => pos += 1; val e = parseAlt(); expect(']'); e
      case '(' => pos += 1; val e = parseAlt(); expect(')'); Capture(e)
      case '.' => pos += 1; Dot(generalize = eatUp())
      case c if isItemStart(c) =>
        val name = parseItemName()
        val gen = eatUp()
        val exact = if (peek == '=') { pos += 1; true } else false
        Item(name, gen, exact)
      case '\u0000' => fail("unexpected end of input")
      case c        => fail(s"unexpected '$c'")
    }
  }

  /** Consume `↑` or its ASCII stand-in `^` if present. */
  private def eatUp(): Boolean =
    if (peek == '↑' || peek == '^') { pos += 1; true } else false

  private def isItemStart(c: Char): Boolean =
    c == '\'' || c.isLetterOrDigit || c == '_' || c == '-' || c == '&' || c == '#'

  private def parseItemName(): String = {
    if (peek == '\'') {
      pos += 1
      val start = pos
      while (pos < input.length && input(pos) != '\'') pos += 1
      if (pos >= input.length) fail("unterminated quoted item name")
      val s = input.substring(start, pos)
      pos += 1
      s
    } else {
      val start = pos
      while (pos < input.length && {
        val c = input(pos)
        c.isLetterOrDigit || c == '_' || c == '-' || c == '&' || c == '#'
      }) pos += 1
      input.substring(start, pos)
    }
  }
}
