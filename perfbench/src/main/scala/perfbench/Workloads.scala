package perfbench

import org.apache.spark.sql.SparkSession
import repro.data.{RawSeqDB, SeqData}

/** One benchmark workload: one constraint on one generated dataset.
  *
  * @param generator the `SeqData` generator, called with `(spark, sf, seed)`
  */
final case class Workload(
    name: String,
    dataset: String,
    sf: Double,
    sigma: Long,
    patex: String,
    generator: (SparkSession, Double, Long) => RawSeqDB
) {
  def generate(spark: SparkSession, seed: Long): RawSeqDB = generator(spark, sf, seed)
  def describe(seed: Long): String =
    s"workload=$name dataset=$dataset sf=$sf seed=$seed sigma=$sigma patex=$patex"
}

/** The benchmark's workloads. perfbench/README.md says why each was chosen,
  * and why the amzn-based ones were left out: their run time depends on a
  * handful of very long sequences, so it changes too much with the seed.
  */
object Workloads {
  val all: Seq[Workload] = Seq(
    // T3(20,1,5): loose, with hierarchy; deep DFS and large per-sequence NFAs.
    Workload("t3-nyt", "nytLite", 0.1, 20, "(.^)[.{0,1}(.^)]{1,4}",
      (s, sf, seed) => SeqData.nytLite(s, sf, seed)),
    // N5(50): many short sequences, shallow mining, many small shuffle records.
    Workload("n5-nyt", "nytLite", 0.5, 50, "([.^. .]|[. .^.]|[. . .^])",
      (s, sf, seed) => SeqData.nytLite(s, sf, seed))
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
