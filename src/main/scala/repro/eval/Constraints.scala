package repro.eval

/** The paper's subsequence constraints (Tab. III), expressed over the
  * synthetic vocabularies. Pattern strings are identical to the paper's up to
  * ASCII `^` for `↑` and our anchor item names.
  *
  * σ values are re-scaled to container-scale data (the paper's corpora have
  * 21–567 M sequences; ours have 10⁴–10⁵) so that selectivity behavior —
  * which constraints are selective vs loose (Tab. IV) — is preserved.
  */
object Constraints {

  final case class Constraint(
      name: String,
      dataset: String, // nyt | amzn | amznF | cw
      patex: String,
      sigma: Long,
      description: String
  )

  // --- Text mining (NYT stand-in) -------------------------------------------
  def n1(sigma: Long) = Constraint(s"N1($sigma)", "nyt",
    "ENTITY (VERB+ NOUN+? PREP?) ENTITY", sigma, "relational phrases between entities")
  def n2(sigma: Long) = Constraint(s"N2($sigma)", "nyt",
    "(ENTITY^ VERB+ NOUN+? PREP? ENTITY^)", sigma, "typed relational phrases")
  def n3(sigma: Long) = Constraint(s"N3($sigma)", "nyt",
    "(ENTITY^ be^=) DET? (ADV? ADJ? NOUN)", sigma, "copular relations for an entity")
  def n4(sigma: Long) = Constraint(s"N4($sigma)", "nyt",
    "(.^){3} NOUN", sigma, "generalized 3-grams before a noun")
  def n5(sigma: Long) = Constraint(s"N5($sigma)", "nyt",
    "([.^. .]|[. .^.]|[. . .^])", sigma, "3-grams, one item generalized")

  // --- Recommendation (AMZN stand-in) ---------------------------------------
  def a1(sigma: Long) = Constraint(s"A1($sigma)", "amzn",
    "(Electr^)[.{0,2}(Electr^)]{1,4}", sigma, "max 5 electronics, max gap 2")
  def a2(sigma: Long) = Constraint(s"A2($sigma)", "amzn",
    "(Book)[.{0,2}(Book)]{1,4}", sigma, "sequences of books")
  def a3(sigma: Long) = Constraint(s"A3($sigma)", "amzn",
    "DigitalCamera[.{0,3}(.^)]{1,4}", sigma, "generalized items after a digital camera")
  def a4(sigma: Long) = Constraint(s"A4($sigma)", "amzn",
    "(MusicInstr^)[.{0,2}(MusicInstr^)]{1,4}", sigma, "musical instruments")

  // --- Traditional constraints ----------------------------------------------
  def t1(sigma: Long, lambda: Int, dataset: String = "amzn") =
    Constraint(s"T1($sigma,$lambda)", dataset,
      s"(.)[.*(.)]{,${lambda - 1}}", sigma, "PrefixSpan: max length")
  def t2(sigma: Long, gamma: Int, lambda: Int, dataset: String = "cw") =
    Constraint(s"T2($sigma,$gamma,$lambda)", dataset,
      s"(.)[.{0,$gamma}(.)]{1,${lambda - 1}}", sigma, "MG-FSM: max length, max gap")
  def t3(sigma: Long, gamma: Int, lambda: Int, dataset: String = "amznF") =
    Constraint(s"T3($sigma,$gamma,$lambda)", dataset,
      s"(.^)[.{0,$gamma}(.^)]{1,${lambda - 1}}", sigma, "LASH: length, gap, hierarchy")

  /** The Tab. III / Tab. IV battery at container scale. */
  def tableIVBattery: Seq[Constraint] = Seq(
    n1(5), n2(10), n3(5), n4(50), n5(50),
    a1(10), a2(5), a3(5), a4(5),
    t3(25, 1, 5), t3(5, 1, 5),
    t1(200, 5), t1(50, 5)
  )

  /** The Tab. V battery: D-SEQ / D-CAND speed-up over sequential DESQ-DFS. */
  def tableVBattery: Seq[Constraint] = Seq(
    n4(50), n5(50),
    t3(25, 1, 5), t3(100, 1, 5),
    t2(25, 0, 5), t2(100, 0, 5)
  )

  /** The Fig. 9 battery: NAIVE / SEMI-NAIVE / D-SEQ / D-CAND. */
  def fig9Battery: Seq[Constraint] = Seq(
    n1(5), n2(10), n3(5), n4(50), n5(50),
    a1(10), a2(5), a3(5), a4(5)
  )
}
