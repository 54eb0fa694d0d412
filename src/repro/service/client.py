"""A tiny stdlib client for the scheduling service.

Used by the test suite, the CI ``service-smoke`` job and the E18
benchmark; also a reasonable starting point for real callers — it is
just ``urllib`` with the service's JSON conventions applied.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any

from repro.instances.io import instance_to_dict
from repro.instances.jobs import Instance
from repro.util.errors import ReproError


class ClientError(ReproError):
    """A non-2xx response; carries the status and decoded error body."""

    def __init__(self, message: str, *, status: int, body: Any = None) -> None:
        super().__init__(message)
        self.status = status
        self.body = body


class ServiceClient:
    """HTTP client bound to one service base URL.

    ``timeout`` is the per-request socket timeout in seconds — the
    client never hangs past it, matching the service's own
    never-hang-a-connection contract.
    """

    def __init__(self, base_url: str, *, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------

    def _request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, bytes, str]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            f"{self.base_url}{path}", data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return (
                    resp.status,
                    resp.read(),
                    resp.headers.get("Content-Type", ""),
                )
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                decoded: Any = json.loads(raw)
            except (ValueError, UnicodeDecodeError):
                decoded = raw.decode("utf-8", "replace")
            error = (
                decoded.get("error", decoded)
                if isinstance(decoded, dict)
                else decoded
            )
            raise ClientError(
                f"{method} {path} -> {exc.code}: {error}",
                status=exc.code,
                body=decoded,
            ) from exc

    def _post_json(self, path: str, body: dict[str, Any]) -> dict[str, Any]:
        _, raw, _ = self._request("POST", path, body)
        return json.loads(raw)

    @staticmethod
    def _instance_doc(instance: Instance | dict[str, Any]) -> dict[str, Any]:
        if isinstance(instance, Instance):
            return instance_to_dict(instance)
        return instance

    # -- endpoints -----------------------------------------------------

    def solve(
        self, instance: Instance | dict[str, Any], **options: Any
    ) -> dict[str, Any]:
        """``POST /solve``; options: algorithm, deadline_ms,
        node_budget, split, or policy."""
        body = {"instance": self._instance_doc(instance), **options}
        return self._post_json("/solve", body)

    def verify(
        self, instance: Instance | dict[str, Any], **options: Any
    ) -> dict[str, Any]:
        """``POST /verify``; options: exact_max_jobs."""
        body = {"instance": self._instance_doc(instance), **options}
        return self._post_json("/verify", body)

    def fuzz(self, **config: Any) -> dict[str, Any]:
        """``POST /fuzz``; config: n_instances, seed, family, max_jobs,
        exact_max_jobs."""
        return self._post_json("/fuzz", config)

    def healthz(self) -> dict[str, Any]:
        _, raw, _ = self._request("GET", "/healthz")
        return json.loads(raw)

    def metrics(self) -> str:
        _, raw, _ = self._request("GET", "/metrics")
        return raw.decode("utf-8")

    def wait_healthy(self, *, timeout: float = 60.0) -> dict[str, Any]:
        """Poll ``/healthz`` until it answers ok, or raise on timeout."""
        deadline = time.monotonic() + timeout
        last: Exception | None = None
        while time.monotonic() < deadline:
            try:
                doc = self.healthz()
                if doc.get("ok"):
                    return doc
            except (ClientError, urllib.error.URLError, OSError) as exc:
                last = exc
            time.sleep(0.05)
        raise TimeoutError(
            f"service at {self.base_url} not healthy after {timeout}s"
            + (f" (last error: {last})" if last else "")
        )
