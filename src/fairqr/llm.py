"""Minimal chat-completion HTTP client with retries and injectable transport.

The transport is a callable (url, headers, payload) -> parsed JSON body, so
tests can stub the wire without a server. The API key comes from the
FAIRQR_API_KEY environment variable, never from config files. A failed call
is retried up to MAX_RETRIES times, except a 4xx reply other than 429, which
a retry would only repeat.
"""
from __future__ import annotations

import json
import os
from typing import Callable

from .errors import RefinerError

API_KEY_ENV = "FAIRQR_API_KEY"
MAX_RETRIES = 2  # so a call is tried up to three times

Transport = Callable[[str, dict, dict], dict]


def _urllib_transport(url: str, headers: dict, payload: dict) -> dict:
    import http.client
    import urllib.request  # loaded only when an LLM endpoint is called

    request = urllib.request.Request(url, json.dumps(payload).encode(),
                                     headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return json.load(resp)
    except http.client.HTTPException as exc:  # e.g. IncompleteRead
        raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc


def _is_client_error(exc: Exception) -> bool:
    """An HTTP 4xx reply other than 429 (too many requests)."""
    code = getattr(exc, "code", None)  # urllib.error.HTTPError's status
    return isinstance(code, int) and 400 <= code < 500 and code != 429


class ChatCompletionClient:
    """OpenAI-style chat completion endpoint wrapper.

    Tolerates concurrent calls: no mutable state beyond configuration.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        transport: Transport | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.transport = transport or _urllib_transport

    def complete(self, prompt: str, temperature: float) -> str:
        """One chat completion; returns the assistant message content."""
        url = f"{self.base_url}/chat/completions"
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        attempts = 0
        while True:
            attempts += 1
            try:
                body = self.transport(url, headers, payload)
                return body["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError, OSError, ValueError) as exc:
                # OSError: URLError, HTTPError, timeouts, dropped connections;
                # ValueError: a body that is not JSON or not UTF-8
                if attempts > MAX_RETRIES or _is_client_error(exc):
                    plural = "s" if attempts > 1 else ""
                    raise RefinerError(
                        f"chat completion failed after {attempts} "
                        f"attempt{plural}: {exc}"
                    ) from exc
