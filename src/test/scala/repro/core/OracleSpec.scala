package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, TestGen}
import repro.dict.Dictionary

/** DuckDB cross-checks: everything SQL can express about our mining stack is
  * verified against an independent engine — item frequencies (the f-list),
  * unigram/bigram/gapped mining, and hierarchy-expanded counting.
  */
class OracleSpec extends SparkSpec {

  private lazy val (dictT, dbT): (Dictionary, IndexedSeq[Array[Int]]) =
    TestGen.encodeLocal(TestGen.randomDb(71, nSeqs = 60), TestGen.toyParents)

  /** tokens(sid, pos, item) as a DataFrame of strings. */
  private lazy val tokens: DataFrame = {
    import spark.implicits._
    dbT.zipWithIndex.flatMap { case (t, sid) =>
      t.toSeq.zipWithIndex.map { case (f, pos) => (sid.toString, pos, dictT.name(f)) }
    }.toDF("sid", "pos", "item")
  }

  /** tokens expanded to all ancestors: anctok(sid, pos, item). */
  private lazy val anctok: DataFrame = {
    import spark.implicits._
    dbT.zipWithIndex.flatMap { case (t, sid) =>
      t.toSeq.zipWithIndex.flatMap { case (f, pos) =>
        dictT.anc(f).toSeq.map(a => (sid.toString, pos, dictT.name(a)))
      }
    }.toDF("sid", "pos", "item")
  }

  private def resultDf(res: Map[Pattern, Long], arity: Int): DataFrame = {
    import spark.implicits._
    val rows = res.toSeq.collect { case (p, f) if p.length == arity =>
      (p.items.map(dictT.name), f)
    }
    arity match {
      case 1 => rows.map { case (it, f) => (it(0), f) }.toDF("i1", "freq")
      case 2 => rows.map { case (it, f) => (it(0), it(1), f) }.toDF("i1", "i2", "freq")
    }
  }

  test("f-list equals DuckDB document frequency over the ancestor expansion") {
    import spark.implicits._
    val flist = (1 to dictT.size).map(f => (dictT.name(f), dictT.freq(f)))
      .filter(_._2 > 0).toDF("item", "freq")
    Oracle.assertEquivalent(
      flist,
      "SELECT item, COUNT(DISTINCT sid) AS freq FROM anctok GROUP BY item",
      "anctok" -> anctok)
  }

  test("unigram mining `(.)` equals SQL distinct-document counting") {
    val sigma = 3L
    val res = dSeq(dbT, dictT, "(.)", sigma)
    Oracle.assertEquivalent(
      resultDf(res, 1),
      s"SELECT item AS i1, COUNT(DISTINCT sid) AS freq FROM tokens GROUP BY item " +
        s"HAVING COUNT(DISTINCT sid) >= $sigma",
      "tokens" -> tokens)
  }

  test("generalized unigram mining `(.^)` equals SQL over the ancestor expansion") {
    val sigma = 3L
    val res = dSeq(dbT, dictT, "(.^)", sigma)
    Oracle.assertEquivalent(
      resultDf(res, 1),
      s"SELECT item AS i1, COUNT(DISTINCT sid) AS freq FROM anctok GROUP BY item " +
        s"HAVING COUNT(DISTINCT sid) >= $sigma",
      "anctok" -> anctok)
  }

  test("consecutive bigram mining `(.)(.)`  equals SQL positional self-join") {
    val sigma = 2L
    val res = dCand(dbT, dictT, "(.)(.)", sigma)
    Oracle.assertEquivalent(
      resultDf(res, 2),
      s"""SELECT a.item AS i1, b.item AS i2, COUNT(DISTINCT a.sid) AS freq
          FROM tokens a JOIN tokens b
            ON a.sid = b.sid AND CAST(b.pos AS INT) = CAST(a.pos AS INT) + 1
          GROUP BY a.item, b.item HAVING COUNT(DISTINCT a.sid) >= $sigma""",
      "tokens" -> tokens)
  }

  test("gapped bigram mining `(.)[.{0,1}(.)]{1,1}` equals SQL with gap <= 1") {
    val sigma = 2L
    val res = dSeq(dbT, dictT, "(.)[.{0,1}(.)]{1,1}", sigma)
    Oracle.assertEquivalent(
      resultDf(res.filter(_._1.length == 2), 2),
      s"""SELECT a.item AS i1, b.item AS i2, COUNT(DISTINCT a.sid) AS freq
          FROM tokens a JOIN tokens b
            ON a.sid = b.sid
           AND CAST(b.pos AS INT) - CAST(a.pos AS INT) BETWEEN 1 AND 2
          GROUP BY a.item, b.item HAVING COUNT(DISTINCT a.sid) >= $sigma""",
      "tokens" -> tokens)
  }

  test("arbitrary-gap pair mining (T1 with λ=2) equals SQL any-later-position join") {
    val sigma = 3L
    val res = dSeq(dbT, dictT, "(.)[.*(.)]{1,1}", sigma)
    Oracle.assertEquivalent(
      resultDf(res.filter(_._1.length == 2), 2),
      s"""SELECT a.item AS i1, b.item AS i2, COUNT(DISTINCT a.sid) AS freq
          FROM tokens a JOIN tokens b
            ON a.sid = b.sid AND CAST(b.pos AS INT) > CAST(a.pos AS INT)
          GROUP BY a.item, b.item HAVING COUNT(DISTINCT a.sid) >= $sigma""",
      "tokens" -> tokens)
  }
}
