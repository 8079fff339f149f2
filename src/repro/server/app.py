"""HTTP adapters over :class:`~repro.server.service.CampaignService`.

One transport-free request handler (:class:`CampaignApi`) does all the work:
it validates request bodies against the pydantic schemas, calls the service,
and returns ``(status, body)`` pairs.  Two thin adapters expose it over HTTP:

* **FastAPI** (the ``server`` extra: ``pip install 's3crm-repro[server]'``)
  — the production path, served by uvicorn;
* **Flask** — a fallback so the server runs in environments that have Flask
  but not FastAPI.  Same routes, same JSON, same status codes.

``create_app`` picks whichever framework is importable (FastAPI preferred)
and ``serve`` runs the result, tearing the service down on exit.

Routes
------

==============================  ======================================
``GET  /health``                liveness + resident-state summary
``POST /scenarios``             register a scenario (201; 200 on dedupe)
``GET  /scenarios``             list registered scenarios
``GET  /scenarios/{id}``        one scenario's resident-state info
``POST /scenarios/{id}/solve``  enqueue an S3CA solve (202 + job id)
``GET  /jobs/{id}``             poll a job (status, result, timings)
``POST /scenarios/{id}/whatif`` answer a what-if from resident state
``POST /scenarios/{id}/events`` apply a graph-event batch, reconcile in place
==============================  ======================================
"""

from __future__ import annotations

import logging
from typing import Optional, Tuple

from pydantic import ValidationError

from repro.exceptions import ServerError
from repro.experiments.config import ServerConfig
from repro.server.errors import InvalidRequest, ServerUnavailable
from repro.server.schemas import (
    GraphEventsRequest,
    RegisterScenarioRequest,
    SolveRequest,
    WhatIfRequest,
)
from repro.server.service import CampaignService

logger = logging.getLogger(__name__)

JsonResponse = Tuple[int, dict]


class CampaignApi:
    """Framework-free request handling: validate, call the service, status."""

    def __init__(self, service: CampaignService) -> None:
        self.service = service

    # Each handler returns (status, body); ServerError propagates and the
    # adapters map it through its .status attribute.

    def health(self) -> JsonResponse:
        return 200, self.service.health()

    def register_scenario(self, body: Optional[dict]) -> JsonResponse:
        request = self._validate(RegisterScenarioRequest, body)
        info, reused = self.service.register_scenario(request)
        return (200 if reused else 201), info

    def list_scenarios(self) -> JsonResponse:
        return 200, {"scenarios": self.service.list_scenarios()}

    def scenario_info(self, scenario_id: str) -> JsonResponse:
        return 200, self.service.scenario_info(scenario_id)

    def enqueue_solve(self, scenario_id: str, body: Optional[dict]) -> JsonResponse:
        request = self._validate(SolveRequest, body)
        job = self.service.enqueue_solve(scenario_id, request)
        return 202, {
            "job_id": job.job_id,
            "scenario_id": scenario_id,
            "status": job.status,
            "poll": f"/jobs/{job.job_id}",
        }

    def job_info(self, job_id: str) -> JsonResponse:
        return 200, self.service.job_info(job_id)

    def whatif(self, scenario_id: str, body: Optional[dict]) -> JsonResponse:
        request = self._validate(WhatIfRequest, body)
        return 200, self.service.whatif(scenario_id, request)

    def apply_events(self, scenario_id: str, body: Optional[dict]) -> JsonResponse:
        request = self._validate(GraphEventsRequest, body)
        return 200, self.service.apply_events(scenario_id, request)

    @staticmethod
    def _validate(model, body: Optional[dict]):
        try:
            return model.model_validate(body or {})
        except ValidationError as error:
            issues = "; ".join(
                f"{'.'.join(str(part) for part in issue['loc']) or 'body'}: "
                f"{issue['msg']}"
                for issue in error.errors()
            )
            raise InvalidRequest(issues) from error


# ----------------------------------------------------------------------
# framework adapters
# ----------------------------------------------------------------------


def available_framework() -> Optional[str]:
    """The HTTP framework ``create_app`` would use, or None."""
    try:
        import fastapi  # noqa: F401

        return "fastapi"
    except ImportError:
        pass
    try:
        import flask  # noqa: F401

        return "flask"
    except ImportError:
        pass
    return None


def create_app(
    service: Optional[CampaignService] = None,
    config: Optional[ServerConfig] = None,
    framework: Optional[str] = None,
):
    """Build the HTTP application over a (possibly shared) service.

    The returned app exposes the service as ``app.state.service`` (FastAPI)
    or ``app.config["CAMPAIGN_SERVICE"]`` (Flask), and carries the chosen
    framework name as ``repro_framework`` either way.
    """
    framework = framework or available_framework()
    if framework is None:
        raise ServerUnavailable(
            "no HTTP framework available; install the server extra: "
            "pip install 's3crm-repro[server]'"
        )
    if service is None:
        service = CampaignService(config or ServerConfig.from_env())
    api = CampaignApi(service)
    if framework == "fastapi":
        return _fastapi_app(api)
    if framework == "flask":
        return _flask_app(api)
    raise ServerUnavailable(f"unknown framework {framework!r}")


def _fastapi_app(api: CampaignApi):
    from fastapi import FastAPI, Request
    from fastapi.responses import JSONResponse as FastApiJson

    app = FastAPI(
        title="s3crm campaign server",
        description="S3CA as a long-running service with resident state.",
    )
    app.state.service = api.service
    app.repro_framework = "fastapi"

    @app.exception_handler(ServerError)
    async def _server_error(request: Request, error: ServerError):
        return FastApiJson(
            status_code=getattr(error, "status", 500),
            content={"error": type(error).__name__, "detail": str(error)},
        )

    def _reply(pair: JsonResponse):
        status, body = pair
        return FastApiJson(status_code=status, content=body)

    @app.get("/health")
    async def health():
        return _reply(api.health())

    @app.post("/scenarios")
    async def register_scenario(body: dict):
        return _reply(api.register_scenario(body))

    @app.get("/scenarios")
    async def list_scenarios():
        return _reply(api.list_scenarios())

    @app.get("/scenarios/{scenario_id}")
    async def scenario_info(scenario_id: str):
        return _reply(api.scenario_info(scenario_id))

    @app.post("/scenarios/{scenario_id}/solve")
    async def enqueue_solve(scenario_id: str, body: Optional[dict] = None):
        return _reply(api.enqueue_solve(scenario_id, body))

    @app.get("/jobs/{job_id}")
    async def job_info(job_id: str):
        return _reply(api.job_info(job_id))

    @app.post("/scenarios/{scenario_id}/whatif")
    async def whatif(scenario_id: str, body: dict):
        return _reply(api.whatif(scenario_id, body))

    @app.post("/scenarios/{scenario_id}/events")
    async def apply_events(scenario_id: str, body: dict):
        return _reply(api.apply_events(scenario_id, body))

    @app.on_event("shutdown")
    async def _shutdown():
        api.service.close()

    return app


def _flask_app(api: CampaignApi):
    from flask import Flask, jsonify, request

    app = Flask("repro.server")
    app.config["CAMPAIGN_SERVICE"] = api.service
    app.repro_framework = "flask"

    def _reply(pair: JsonResponse):
        status, body = pair
        return jsonify(body), status

    @app.errorhandler(ServerError)
    def _server_error(error):
        return (
            jsonify({"error": type(error).__name__, "detail": str(error)}),
            getattr(error, "status", 500),
        )

    def _body() -> Optional[dict]:
        return request.get_json(force=True, silent=True)

    @app.get("/health")
    def health():
        return _reply(api.health())

    @app.post("/scenarios")
    def register_scenario():
        return _reply(api.register_scenario(_body()))

    @app.get("/scenarios")
    def list_scenarios():
        return _reply(api.list_scenarios())

    @app.get("/scenarios/<scenario_id>")
    def scenario_info(scenario_id):
        return _reply(api.scenario_info(scenario_id))

    @app.post("/scenarios/<scenario_id>/solve")
    def enqueue_solve(scenario_id):
        return _reply(api.enqueue_solve(scenario_id, _body()))

    @app.get("/jobs/<job_id>")
    def job_info(job_id):
        return _reply(api.job_info(job_id))

    @app.post("/scenarios/<scenario_id>/whatif")
    def whatif(scenario_id):
        return _reply(api.whatif(scenario_id, _body()))

    @app.post("/scenarios/<scenario_id>/events")
    def apply_events(scenario_id):
        return _reply(api.apply_events(scenario_id, _body()))

    return app


def serve(config: Optional[ServerConfig] = None) -> None:
    """Run the campaign server until interrupted; always tears state down."""
    config = config or ServerConfig.from_env()
    framework = available_framework()
    if framework is None:
        raise ServerUnavailable(
            "no HTTP framework available; install the server extra: "
            "pip install 's3crm-repro[server]'"
        )
    service = CampaignService(config)
    app = create_app(service=service, framework=framework)
    logger.info(
        "campaign server starting on %s:%d (%s, pool_workers=%s, job_workers=%d)",
        config.host,
        config.port,
        framework,
        config.estimator.workers or 1,
        config.job_workers,
    )
    try:
        if framework == "fastapi":
            import uvicorn

            uvicorn.run(app, host=config.host, port=config.port, log_level="info")
        else:
            # Threaded so a long solve poll does not starve /health; job
            # concurrency is still bounded by the JobManager.
            app.run(host=config.host, port=config.port, threaded=True)
    finally:
        service.close()
