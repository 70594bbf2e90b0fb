package repro.patex

import PatEx._

/** Prints a [[PatEx]] in the syntax [[PatExParser]] reads, so that parsing the
  * output gives the same AST back: `[...]` brackets wherever the AST nests a
  * concatenation in a concatenation, an alternation in an alternation or in
  * a concatenation, or anything but an item, a dot, a capture or a
  * repetition under a repetition. Item names that are not bare identifiers
  * are single-quoted.
  */
object PatExPrinter {

  def print(e: PatEx): String = e match {
    case Item(name, gen, exact) => itemName(name) + (if (gen) "^" else "") + (if (exact) "=" else "")
    case Dot(gen)               => if (gen) ".^" else "."
    case Capture(inner)         => s"(${print(inner)})"
    case Concat(es)             => es.map { case c @ (_: Concat | _: Alt) => group(c); case c => print(c) }.mkString(" ")
    case Alt(es)                => es.map { case a: Alt => group(a); case a => print(a) }.mkString("|")
    case Repeat(inner, min, max) =>
      val operand = inner match {
        case _: Item | _: Dot | _: Capture | _: Repeat => print(inner)
        case _                                         => group(inner)
      }
      operand + ((min, max) match {
        case (0, Int.MaxValue) => "*"
        case (1, Int.MaxValue) => "+"
        case (0, 1)            => "?"
        case (n, Int.MaxValue) => s"{$n,}"
        case (n, m) if n == m  => s"{$n}"
        case (n, m)            => s"{$n,$m}"
      })
  }

  private def group(e: PatEx): String = s"[${print(e)}]"

  private def itemName(name: String): String =
    if (name.nonEmpty && name.forall(c => c.isLetterOrDigit || "_-&#".contains(c))) name else s"'$name'"
}
