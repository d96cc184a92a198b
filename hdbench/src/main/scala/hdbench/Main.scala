package hdbench

import java.io.File
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.{VecRow, VectorData}
import repro.baselines.LinearScan
import repro.core._

/** One benchmark workload: a dataset of the `VectorData` registry and the
  * share of queries and inserts in its operation mix (the rest are deletes).
  */
final case class Workload(spec: VectorData.Spec, queryPct: Int, insertPct: Int)

/** Counts the tasks and shuffle bytes of the Spark jobs a build runs. */
final class TaskCounter extends SparkListener {
  private var tasks0 = 0L
  private var shuffle0 = 0L
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks0 += 1
    if (e.taskMetrics != null) shuffle0 += e.taskMetrics.shuffleWriteMetrics.bytesWritten
  }
  def reset(): Unit = synchronized { tasks0 = 0; shuffle0 = 0 }
  def tasks: Long = synchronized(tasks0)
  def shuffleBytes: Long = synchronized(shuffle0)
}

/** Latencies (ns) and outcomes of the timed operations of one run. */
final class Samples {
  val query  = ArrayBuffer.empty[Long]
  val insert = ArrayBuffer.empty[Long]
  /** Start times (nanoTime) of the samples in `query` and `insert`. */
  val queryStart  = ArrayBuffer.empty[Long]
  val insertStart = ArrayBuffer.empty[Long]
  val delete = ArrayBuffer.empty[Long]
  /** Traced queries' `searchLocal` time; `query` holds the untraced ones. */
  val tracedQuery = ArrayBuffer.empty[Long]
  var attempted = 0L
  var failed = 0L
}

/** The benchmark program: builds HD-Index on one workload, runs it closed
  * loop with one client for a fixed time, checks every answer and prints
  * the metrics as one JSON object on the last line of standard output.
  *
  * Usage: `hdbench.Main --workload W --seed S --seconds T --trace 0|1
  * --work-dir DIR --stamp BUILD_HASH [--spec NAME]`. `--spec` replaces the
  * workload's dataset by another registry entry (the smoke run uses `tiny`).
  */
object Main {
  val K = 100
  /** Held-out queries that warm the JIT; they are never timed. */
  val WarmQueries = 20
  val WarmSeconds = 2.0
  /** Builds per run; `setup_s` is their median and each model is queried in one epoch. */
  val BuildReps = 3
  /** Writes timed on a read-only workload, in short bursts spread over the
    * run so that a brief stall of the host cannot dominate their tail.
    */
  val ProbeOps = 2000
  val ProbeBursts = 24
  /** Inserted vectors are fresh draws of the dataset's mixture, taken from
    * id streams that no database or query point uses.
    */
  val InsertStream = 1L << 40
  val WarmInsertStream = 1L << 41

  val workloads: Map[String, Workload] = Map(
    "sun-query"     -> Workload(VectorData.sun, queryPct = 100, insertPct = 0),
    "sift10k-churn" -> Workload(VectorData.sift10k, queryPct = 75, insertPct = 20))

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(name: String): String = args.getOrElse(name, usage(s"missing --$name"))
    val w = workloads.getOrElse(arg("workload"), usage(s"unknown workload ${arg("workload")}"))
    val registry = args.get("spec").map(VectorData.byName).getOrElse(w.spec)
    val seed = args.get("seed").map(_.toLong).getOrElse(registry.seed)
    val work = new File(arg("work-dir")).getAbsoluteFile
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("hdbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", new File(work, "spark").getPath)
      .config("spark.sql.warehouse.dir", new File(work, "warehouse").getPath)
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    val out = try {
      new Run(spark, arg("workload"), w, registry.copy(seed = seed), arg("seconds").toDouble,
              arg("trace") == "1", work, arg("stamp")).run()
    } finally spark.stop()
    println(out)
    System.out.flush()
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"hdbench: $msg")
    sys.exit(2)
  }
}

/** One run of one workload. */
final class Run(spark: SparkSession, wname: String, w: Workload, registry: VectorData.Spec,
                seconds: Double, traced: Boolean, work: File, stamp: String) {
  import Main._

  private val nQ      = registry.nQueries
  private val spec    = registry.copy(nQueries = nQ + WarmQueries)
  private val local   = spec.localData
  private val queries = spec.queries.map(_.vec)
  private val timedQ  = queries.take(nQ)
  private val warmQ   = queries.drop(nQ)
  // HdIndexMethod's rule for α
  private val params  = QueryParams.recommended(K, math.max(256, math.min(4096, spec.n / 10)))
  private val cfg     = HdIndex.configFor(spec)
  private val readOnly = w.queryPct == 100

  private val defects = ArrayBuffer.empty[String]
  private val faults  = ArrayBuffer.empty[String]
  private def log(s: String): Unit = Console.err.println(s"[hdbench] $s")

  // ---- operation state --------------------------------------------------
  /** Every model the set-up built; each is queried in its own epoch. */
  private val bases = ArrayBuffer.empty[HdIndexModel]
  /** The model of the current epoch. */
  private var base: HdIndexModel = _
  private var cur: HdIndexModel = _
  /** The index queries run on: `base` stays unchanged on a read-only workload. */
  private def queried: HdIndexModel = if (readOnly) base else cur
  private val vecs = ArrayBuffer.empty[Array[Float]]
  private val getVec: Long => Array[Float] = id => vecs(id.toInt)
  private val rng = new java.util.Random(spec.seed * 1000003L + 17)
  private var ops = 0L
  private var queryCursor = 0
  private var shortAnswers = 0L
  private var truth: Array[Array[Long]] = _

  // first pass: the first nQ query operations, whose counters are deterministic
  private val firstAnswers = ArrayBuffer.empty[Array[Long]]
  private val firstTruth   = ArrayBuffer.empty[Array[Long]]
  private val firstStats   = ArrayBuffer.empty[QueryStats]

  // traced-run counters
  private val tracer = new Tracer
  private val filterSelf    = ArrayBuffer.empty[Long]
  private val windowEntries = ArrayBuffer.empty[Long]
  private val candRecall    = ArrayBuffer.empty[Double]

  def run(): String = {
    val sc = spark.sparkContext
    val counter = new TaskCounter
    sc.addSparkListener(counter)
    def cachedData(): Dataset[VecRow] = { val d = spec.data(spark).cache(); d.count(); d }
    def clearCaches(): Unit = {
      spark.catalog.clearCache()
      sc.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    }

    // -- set-up: HdIndex.build, repeated; every model is kept for the timed epochs.
    // The traced run also times the build's first two phases through their
    // own public calls before each build. `RdbTree.build` runs its sampling,
    // sort and ranking jobs eagerly and returns the lazy leaf-id pass, so
    // `build.assemble_s`, the residual of each build, holds that pass, the
    // cache, the collect, the sort of the collected entries and the `LocalTree` views.
    val setupS, tasks, shuffleMb, refselS, rdbtreeS = ArrayBuffer.empty[Double]
    var shape: String = null
    var data: Dataset[VecRow] = null
    for (r <- 0 until BuildReps) {
      if (traced) {
        clearCaches()
        val d = cachedData()
        val t0 = System.nanoTime()
        val refIds = ReferenceSelection.sss(local, cfg.m, cfg.f, cfg.seed)
        val t1 = System.nanoTime()
        RdbTree.build(spark, d, refIds.map(local(_)), cfg.dim, cfg.tau, cfg.omega,
                      cfg.lo, cfg.hi, cfg.pageSize)
        val t2 = System.nanoTime()
        refselS += (t1 - t0) / 1e9
        rdbtreeS += (t2 - t1) / 1e9
      }
      clearCaches()
      data = cachedData()
      ListenerBusAccess.drain(sc)
      counter.reset()
      val t0 = System.nanoTime()
      base = HdIndex.build(spark, data, local, cfg)
      setupS += (System.nanoTime() - t0) / 1e9
      bases += base
      ListenerBusAccess.drain(sc)
      tasks += counter.tasks.toDouble
      shuffleMb += counter.shuffleBytes / 1e6
      val s = shapeOf(base)
      if (shape != null && s != shape) defects += s"build $r gave index shape $s, build 0 gave $shape"
      shape = s
    }
    log(f"built $wname (${spec.name}, seed ${spec.seed}): n=${spec.n} tau=${cfg.tau} " +
        f"alpha=${params.alpha} gamma=${params.gamma}; builds ${setupS.map(s => f"$s%.3f").mkString(" ")} s")

    if (readOnly)
      truth = LinearScan.groundTruth(spark, data, timedQ.zipWithIndex.map { case (v, i) => VecRow(spec.n + i, v) }, K)
        .map(_.map(_._1))

    // -- warm-up: held-out queries and writes of fresh vectors, the writes on
    // a copy of the last model. A read-only workload later times its writes on
    // that copy; the churn workload starts every epoch from a fresh model.
    cur = base
    vecs ++= local
    val warmEnd = System.nanoTime() + (WarmSeconds * 1e9).toLong
    var i = 0
    while (System.nanoTime() < warmEnd) {
      HdQuery.searchLocal(queried, warmQ(i % WarmQueries), params, getVec)
      val v = spec.point(WarmInsertStream + i)
      cur = HdIndex.insert(cur, cur.n, v)
      vecs += v
      if (i % 4 == 0) HdIndex.markDeleted(cur, cur.n / 2)
      i += 1
    }
    // the timed phases use only the local models: Spark's threads and cached
    // blocks go before them
    spark.stop()

    // -- timed phases: one epoch per built model. A read-only workload queries
    // each model unchanged; the churn workload starts each epoch again from
    // its model and the database vectors, so the index it queries grows over
    // one epoch at most, however fast the host runs.
    val s = new Samples
    var gcMs = 0L
    val epochEnds = ArrayBuffer.empty[Int]
    // read-only workloads also time a fixed number of writes on the copy, so
    // write latency is measured on every workload's index shape
    val bursts = if (readOnly) ProbeBursts / bases.length else 1
    for (e <- bases.indices) {
      base = bases(e)
      if (!readOnly) { cur = base; vecs.dropRightInPlace(vecs.length - spec.n) }
      // a full collection before each epoch: its pause is not timed, and every
      // epoch starts with the same heap
      System.gc()
      val gc0 = gcMillis()
      for (_ <- 0 until bursts) {
        val deadline = System.nanoTime() + (seconds / bases.length / bursts * 1e9).toLong
        runOps(s, w.queryPct, w.insertPct)(System.nanoTime() < deadline || firstStats.length < nQ)
        var left = if (readOnly) ProbeOps / bases.length / bursts else 0
        runOps(s, 0, 80) { left -= 1; left >= 0 }
      }
      gcMs += gcMillis() - gc0
      epochEnds += s.query.length
    }

    // -- deterministic counters and self-check
    val map = Metrics.mapAtK(firstAnswers.indices.map(i => (firstTruth(i).toSeq, firstAnswers(i).toSeq)), K)
    val kappa = firstStats.map(_.kappa.toDouble).sum / firstStats.length
    val leafPages = firstStats.map(_.leafPages.toDouble).sum / firstStats.length
    checkFingerprint(s"index_bytes=${base.indexBytes} map=$map kappa=$kappa leaf_pages=$leafPages shape=$shape")

    faults.distinct.take(10).foreach(f => log(s"FAILED operation: $f"))
    defects.distinct.take(10).foreach(d => log(s"DETERMINISM DEFECT: $d"))
    val correct = s.failed == 0 && defects.isEmpty

    val metrics: Seq[(String, Double, String)] =
      if (!traced) {
        val (qTail, qPct, qChunks) = chunkedTail(s.query)
        val (iTail, iPct, _) = chunkedTail(s.insert)
        // the insert tail is logged, not reported: on sun-query it spread past any bound between runs
        val epochP50 = epochEnds.indices.map(e => median(s.query.slice(if (e == 0) 0 else epochEnds(e - 1), epochEnds(e))) / 1e6)
        log(epochP50.map(v => f"$v%.3f").mkString("query p50 per epoch: ", " ", s" ms; GC in timed phases $gcMs ms"))
        log(f"query samples ${s.query.length} in $qChunks tail chunks, tail = p$qPct%.2f, " +
            f"pooled p50 ${median(s.query) / 1e6}%.3f ms; insert samples ${s.insert.length}, " +
            f"tail = p$iPct%.2f: $iTail%.3f ms, pooled p50 ${median(s.insert) / 1e6}%.3f ms; " +
            f"delete samples ${s.delete.length}; attempted ${s.attempted}, failed ${s.failed}")
        Seq(
          ("query_p50_ms", windowedMedian(s.queryStart, s.query), "ms"),
          ("query_p99_ms", qTail, "ms"),
          ("query_qps", s.query.length / (s.query.sum / 1e9), "1/s"),
          ("map_at_100", map, "ratio"),
          ("insert_p50_ms", windowedMedian(s.insertStart, s.insert), "ms"),
          ("ok_frac", 1.0 - s.failed.toDouble / s.attempted, "ratio"),
          ("setup_s", median(setupS), "s"),
          ("index_mb", base.indexBytes / 1e6, "MB"))
      } else {
        val tau = base.trees.length
        val traceFile = new File(work, s"traces/$wname-seed${spec.seed}.jsonl")
        tracer.write(traceFile)
        log(s"query samples ${s.query.length} untraced, ${s.tracedQuery.length} traced; spans written to $traceFile")
        Seq(
          ("hilbert.encode_us", medianUs("hilbert.encode"), "us"),
          ("window.select_us", medianUs("window.select"), "us"),
          ("window.entries", mean(windowEntries.map(_.toDouble)), "count"),
          ("window.leaf_pages", leafPages, "count"),
          ("query.refdist_us", medianUs("query.refdist"), "us"),
          ("filter.self_us", median(filterSelf) / 1e3, "us"),
          ("filter.kappa", kappa, "count"),
          ("filter.dedup_frac", kappa / (tau.toLong * params.gamma), "ratio"),
          ("filter.candidate_recall", mean(candRecall), "ratio"),
          ("rerank.self_us", medianUs("rerank"), "us"),
          ("rerank.useful_frac", firstAnswers.map(_.length).sum.toDouble / firstStats.map(_.kappa).sum, "ratio"),
          ("rerank.bytes", kappa * spec.dim * 4, "B"),
          ("build.refsel_s", median(refselS), "s"),
          ("build.rdbtree_s", median(rdbtreeS), "s"),
          ("build.assemble_s", median(setupS.indices.map(r => setupS(r) - refselS(r) - rdbtreeS(r))), "s"),
          ("build.spark_tasks", median(tasks), "count"),
          ("build.shuffle_write_mb", median(shuffleMb), "MB"),
          ("tree.leaf_order", base.trees.indices.map(base.leafOrder).min.toDouble, "count"),
          ("tree.height", base.trees.indices.map(base.treeHeight).max.toDouble, "count"),
          ("tree.leaf_pages", base.trees.indices.map(t => (base.n + base.leafOrder(t) - 1) / base.leafOrder(t)).sum.toDouble, "count"),
          ("insert.encode_us", medianUs("insert.encode"), "us"),
          ("delete.mark_us", medianUs("delete.mark"), "us"),
          ("query.short_answers", shortAnswers.toDouble, "count"),
          ("jvm.gc_ms", gcMs.toDouble, "ms"),
          ("trace.overhead_ms", (median(s.tracedQuery) - median(s.query)) / 1e6, "ms"))
      }
    metrics.foreach { case (n, v, u) => log(f"$n%-24s $v%14.6f $u") }
    val body = metrics.map { case (n, v, u) => s""""$n":{"value":${json(v)},"unit":"$u"}""" }.mkString(",")
    s"""{"correct":$correct,"attempted":${s.attempted},"failed":${s.failed},"metrics":{$body}}"""
  }

  // ---- operations -------------------------------------------------------

  /** Runs operations back to back while `more` holds. In the traced run
    * every second query is traced, so traced and untraced queries see the
    * same index and the same JIT state.
    */
  private def runOps(s: Samples, queryPct: Int, insertPct: Int)(more: => Boolean): Unit =
    while (more) {
      val u = rng.nextInt(100)
      ops += 1
      s.attempted += 1
      if (u < queryPct) query(s, traced && queryCursor % 2 == 1)
      else if (u < queryPct + insertPct) insert(s, traced)
      else delete(s, traced)
    }

  private def query(s: Samples, traceOn: Boolean): Unit = {
    val qi = queryCursor % nQ
    val firstPass = queryCursor < nQ
    queryCursor += 1
    val q = timedQ(qi)
    val res =
      if (!traceOn) {
        val t0 = System.nanoTime()
        val r = Try(HdQuery.searchLocal(queried, q, params, getVec))
        s.query += System.nanoTime() - t0
        s.queryStart += t0
        r
      } else tracedQuery(s, q, qi)
    res match {
      case Failure(e) =>
        s.failed += 1
        faults += s"query $qi: threw $e"
      case Success((ans, stats)) =>
        val f = fault(ans, q)
        if (f != null) { s.failed += 1; faults += s"query $qi: $f" }
        if (ans.length < math.min(K.toLong, queried.n - queried.deleted.size)) shortAnswers += 1
        val ids = ans.map(_._1)
        if (firstPass) {
          firstAnswers += ids
          firstTruth += (if (readOnly) truth(qi) else exactLive(q))
          firstStats += stats
        } else if (readOnly && !java.util.Arrays.equals(ids, firstAnswers(qi)))
          defects += s"query $qi answered differently on a repeat"
    }
  }

  /** The query with spans: `searchLocal` with a recording `getVec`, then a
    * replay of the stages it runs internally through the same public calls.
    */
  private def tracedQuery(s: Samples, q: Array[Float], qi: Int): Try[(Array[(Long, Double)], QueryStats)] = {
    val rec = new FetchRecorder(getVec)
    val s0 = System.nanoTime()
    val r = Try(HdQuery.searchLocal(queried, q, params, rec))
    val s1 = System.nanoTime()
    val trees = queried.trees
    val keys = trees.map(t => Hilbert(t.width, cfg.omega).encodeVector(q, t.fromDim, cfg.lo, cfg.hi))
    val e1 = System.nanoTime()
    var entries = 0L
    var t = 0
    while (t < trees.length) {
      val (a, b) = HdQuery.selectWindow(trees(t).keys, keys(t), params.alpha)
      entries += b - a
      t += 1
    }
    val e2 = System.nanoTime()
    queried.refs.map(r => Distance.l2(q, r))
    val e3 = System.nanoTime()
    val fetch = if (rec.firstFetch < 0) s1 else rec.firstFetch
    val root = tracer.span("query", ops, -1, s0, e3)
    val sl = tracer.span("search_local", ops, root, s0, s1)
    tracer.span("filter", ops, sl, s0, fetch)
    tracer.span("rerank", ops, sl, fetch, s1)
    tracer.span("hilbert.encode", ops, root, s1, e1, replay = true)
    tracer.span("window.select", ops, root, e1, e2, replay = true)
    tracer.span("query.refdist", ops, root, e2, e3, replay = true)
    s.tracedQuery += s1 - s0
    filterSelf += (fetch - s0) - (e3 - s1)
    windowEntries += entries
    val top = (if (readOnly) truth(qi) else exactLive(q)).toSet
    if (top.nonEmpty) candRecall += rec.ids.distinct.count(top.contains).toDouble / top.size
    r
  }

  private def insert(s: Samples, traceOn: Boolean): Unit = {
    val id = cur.n
    val v = spec.point(InsertStream + (id - spec.n))
    val t0 = System.nanoTime()
    val r = Try(HdIndex.insert(cur, id, v))
    val t1 = System.nanoTime()
    s.insert += t1 - t0
    s.insertStart += t0
    if (traceOn) {
      cur.trees.foreach(t => Hilbert(t.width, cfg.omega).encodeVector(v, t.fromDim, cfg.lo, cfg.hi))
      val t2 = System.nanoTime()
      val root = tracer.span("insert", ops, -1, t0, t2)
      tracer.span("insert.apply", ops, root, t0, t1)
      tracer.span("insert.encode", ops, root, t1, t2, replay = true)
    }
    r match {
      case Success(m) if m.n == id + 1 => cur = m; vecs += v
      case other => s.failed += 1; faults += s"insert $id: $other"
    }
  }

  private def delete(s: Samples, traceOn: Boolean): Unit = {
    var id = rng.nextInt(cur.n.toInt).toLong
    while (cur.deleted.contains(id)) id = rng.nextInt(cur.n.toInt).toLong
    val t0 = System.nanoTime()
    val r = Try(HdIndex.markDeleted(cur, id))
    val t1 = System.nanoTime()
    if (traceOn) tracer.span("delete.mark", ops, -1, t0, t1)
    s.delete += t1 - t0
    if (r.isFailure || !cur.deleted.contains(id)) { s.failed += 1; faults += s"delete $id: $r" }
  }

  /** Why an answer is wrong, or null. Short answers are not faults. */
  private def fault(ans: Array[(Long, Double)], q: Array[Float]): String = {
    if (ans.length > K) return s"${ans.length} entries for k=$K"
    val seen = scala.collection.mutable.HashSet.empty[Long]
    var i = 0
    while (i < ans.length) {
      val (id, d) = ans(i)
      val m = queried
      if (id < 0 || id >= m.n) return s"id $id out of range [0, ${m.n})"
      if (m.deleted.contains(id)) return s"deleted id $id"
      if (!seen.add(id)) return s"duplicate id $id"
      if (java.lang.Double.compare(d, Distance.l2(vecs(id.toInt), q)) != 0)
        return s"distance $d of id $id differs from Distance.l2"
      if (i > 0 && (ans(i - 1)._2 > d || (ans(i - 1)._2 == d && ans(i - 1)._1 > id)))
        return s"not sorted by (distance, id) at rank $i"
      i += 1
    }
    null
  }

  /** Exact top-k ids over the live set of the current model, sorted by
    * (distance, id). It does not call `Distance.topK`, so the oracle leaves
    * the JIT profile of the query path alone.
    */
  private def exactLive(q: Array[Float]): Array[Long] = {
    val live = (0 until cur.n.toInt).filterNot(i => cur.deleted.contains(i.toLong)).toArray
    val dist = live.map(i => Distance.l2(vecs(i), q))
    live.indices.sortBy(j => (dist(j), live(j))).take(K).map(j => live(j).toLong).toArray
  }

  // ---- helpers ----------------------------------------------------------

  private def shapeOf(m: HdIndexModel): String =
    s"${m.indexBytes}:" + m.trees.indices.map { t =>
      val tr = m.trees(t)
      val keysHash = tr.keys.foldLeft(0)((h, k) => 31 * h + java.util.Arrays.hashCode(k))
      s"${m.leafOrder(t)}/${m.treeHeight(t)}/${java.util.Arrays.hashCode(tr.ids)}/$keysHash"
    }.mkString(",")

  /** Compares the deterministic counters with an earlier run of the same
    * build, workload and seed; any difference is a determinism defect.
    */
  private def checkFingerprint(fp: String): Unit = {
    val f = new File(work, s"fingerprints/$wname-${spec.name}-seed${spec.seed}.txt")
    val now = s"$stamp\n$fp\n"
    val before = if (f.exists) new String(Files.readAllBytes(f.toPath), UTF_8) else ""
    if (before.startsWith(s"$stamp\n")) {
      if (before != now)
        defects += s"deterministic counters changed between runs:\n  before ${before.linesIterator.drop(1).next()}\n  now    $fp"
    } else {
      f.getParentFile.mkdirs()
      Files.write(f.toPath, now.getBytes(UTF_8))
    }
  }

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  private def median(xs: Iterable[Double]): Double = {
    val a = xs.toArray.sorted
    if (a.isEmpty) Double.NaN
    else if (a.length % 2 == 1) a(a.length / 2) else (a(a.length / 2 - 1) + a(a.length / 2)) / 2
  }

  private def median(ns: ArrayBuffer[Long]): Double = median(ns.map(_.toDouble))

  /** The mean over one-second windows of the timed phases of each window's
    * median latency, in ms. The host's speed shifts every few seconds by up
    * to a fifth, and a query's latency varies much less than that within one
    * speed; a median pooled over the run jumps from one speed to the other as
    * the slow share of the run crosses one half, while this mean moves with
    * that share.
    */
  private def windowedMedian(starts: ArrayBuffer[Long], ns: ArrayBuffer[Long]): Double = {
    val windows = starts.indices.groupBy(i => (starts(i) - starts(0)) / 1000000000L).values
    val medians = windows.filter(_.length >= 5).map(w => median(w.map(ns(_).toDouble)))
    medians.sum / medians.size / 1e6
  }

  private def medianUs(span: String): Double = median(tracer.durations(span).map(_.toDouble)) / 1e3

  private def mean(xs: Iterable[Double]): Double = xs.sum / xs.size

  /** p99 in ms when at least ten samples lie beyond it, else the highest
    * percentile that has ten samples beyond it; with the percentile used.
    */
  private def tail(ns: ArrayBuffer[Long]): (Double, Double) = {
    val a = ns.toArray.sorted
    val idx = math.max(0, math.min(math.ceil(0.99 * a.length).toInt - 1, a.length - 11))
    if (a.isEmpty) (Double.NaN, Double.NaN) else (a(idx) / 1e6, 100.0 * (idx + 1) / a.length)
  }

  /** The tail of `tail`, as the mean over equal chunks of consecutive samples,
    * at least 1000 each when there are that many, of each chunk's tail; with
    * the percentile used and the number of chunks. Like `windowedMedian`, it
    * moves with the slow share of the run instead of jumping.
    */
  private def chunkedTail(ns: ArrayBuffer[Long]): (Double, Double, Int) = {
    val chunks = math.max(1, ns.length / 1000)
    val size = ns.length / chunks
    val tails = (0 until chunks).map(c => tail(ns.slice(c * size, (c + 1) * size)))
    (mean(tails.map(_._1)), tails.head._2, chunks)
  }

  private def json(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else v.toString
}
