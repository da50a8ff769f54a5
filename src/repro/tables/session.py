"""The one SparkSession factory, for the ``jobs/`` entrypoints and the test
suite's ``spark`` fixture (root ``conftest.py``), so job runs and test runs
exercise the same planner behaviour.  Driver memory is read at JVM launch,
so it comes from the launch command (``spark-submit``, or
``PYSPARK_SUBMIT_ARGS`` in the tests).  The session fixes the shuffle
partitions at 64 and turns Arrow on for ``mapInPandas``.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app_name: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app_name)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
