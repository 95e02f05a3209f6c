"""Count the Spark jobs a callable starts."""
from __future__ import annotations

from itertools import count

_groups = count()


def spark_jobs(spark, fn):
    """Run ``fn()`` under a fresh job group; return its result and the group's job count."""
    sc = spark.sparkContext
    group = f"tests-spark-jobs-{next(_groups)}"
    sc.setJobGroup(group, "counted by tests.jobs.spark_jobs")
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))
